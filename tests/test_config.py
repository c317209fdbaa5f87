import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandsim import (
    ConfigurationError,
    Mode,
    SimConfig,
    load_config,
    parse_config_text,
)

MINIMAL = """
# smallest valid file
N = 3
K = 20
M = 4
mode = equality
seed = 1234
"""


class TestSimConfig:
    def base(self, **kw):
        d = dict(N=2, K=10, M=3, mode=Mode.EQUALITY, seed=1)
        d.update(kw)
        return SimConfig(**d)

    def test_defaults(self):
        cfg = self.base()
        assert cfg.p_copy == 1.0
        assert cfg.p_unknown == 0.25
        assert cfg.leader_count == 0
        assert cfg.leader_pupils == 0
        assert cfg.aligned_leader_brand is None
        assert cfg.shop_counts == (1, 1)
        assert cfg.shop_teach_rate == 0.0
        assert cfg.epsilon == 1e-12
        assert cfg.max_sweeps == 1000
        assert cfg.record_every == 1

    def test_own_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            SimConfig(1.0, 0, 0.0, 2, 10, 3, Mode.EQUALITY, 1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("N", 0),
            ("K", 1),
            ("M", 0),
            ("mode", "equality"),
            ("p_copy", 1.5),
            ("p_copy", -0.1),
            ("p_copy", float("nan")),
            ("p_unknown", 2.0),
            ("leader_count", -1),
            ("leader_count", 10),
            ("leader_pupils", 10),
            ("aligned_leader_brand", 2),
            ("aligned_leader_brand", -1),
            ("shop_teach_rate", -1.0),
            ("shop_teach_rate", float("inf")),
            ("shop_teach_rate", 1e30),
            ("epsilon", 0.0),
            ("max_sweeps", 0),
            ("record_every", 0),
            ("seed", -1),
            ("seed", 1 << 64),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        with pytest.raises(ConfigurationError) as exc:
            self.base(**{field: value})
        assert field in str(exc.value)

    def test_rate_range_checked_before_mode_and_sizes(self):
        # the kernel rates are range-checked ahead of SimConfig's other checks
        with pytest.raises(ConfigurationError, match="p_copy"):
            self.base(mode="equality", N=0, p_copy=1.5)

    def test_leader_count_equal_k_rejected(self):
        with pytest.raises(ConfigurationError):
            self.base(K=5, leader_count=5)

    def test_pupils_cannot_exceed_non_leaders(self):
        # the edges of leader_pupils <= K - max(leader_count, 1) at K=5
        for leaders, pupils in ((2, 4), (0, 5)):
            with pytest.raises(ConfigurationError) as exc:
                self.base(K=5, leader_count=leaders, leader_pupils=pupils)
            assert "leader_pupils" in str(exc.value)
        # K-1 pupils bound an inert channel (no leaders) as well as one leader
        for leaders in (0, 1):
            self.base(K=5, leader_count=leaders, leader_pupils=4)

    def test_shop_event_total_must_fit_one_draw(self):
        with pytest.raises(ConfigurationError):
            self.base(shop_teach_rate=1.0, shop_counts=(1, 10**400))
        # fine when the channel is off: no shop event is ever drawn
        self.base(shop_teach_rate=0.0, shop_counts=(1, 10**400))

    @pytest.mark.parametrize(
        "sizes,key",
        [
            (dict(N=2, K=2**60, M=1), "K"),
            (dict(N=1, K=6, M=1, shop_counts=(2**60,), shop_teach_rate=1), "shop_counts"),
        ],
        ids=["cells", "shop_events"],
    )
    def test_array_beyond_numpy_byte_limit_rejected(self, sizes, key):
        # few enough cells for an index, but too many bytes for numpy
        with pytest.raises(ConfigurationError, match="bytes") as exc:
            self.base(**sizes)
        assert key in str(exc.value)

    def test_shop_counts_length_checked(self):
        with pytest.raises(ConfigurationError):
            self.base(shop_counts=(1, 1, 1))
        with pytest.raises(ConfigurationError):
            self.base(shop_counts=(1, 0))

    def test_numpy_integers_accepted(self):
        import numpy as np

        cfg = self.base(K=np.int64(12))
        assert cfg.K == 12 and type(cfg.K) is int

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            self.base(K=10.5)

    @pytest.mark.parametrize("bad", [2.7, True, "3", 2.0])
    def test_non_integer_shop_count_rejected_not_truncated(self, bad):
        with pytest.raises(ConfigurationError) as exc:
            self.base(shop_counts=(bad, 1))
        assert "shop_counts" in str(exc.value)

    @pytest.mark.parametrize("bad", [5, 2.5, object()])
    def test_non_iterable_shop_counts_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="shop_counts"):
            self.base(shop_counts=bad)

    def test_numpy_and_huge_shop_counts_accepted(self):
        import numpy as np

        cfg = self.base(shop_counts=(np.int64(3), 10**85))
        assert cfg.shop_counts == (3, 10**85) and type(cfg.shop_counts[0]) is int


class TestParsing:
    def test_minimal_file_applies_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert (cfg.N, cfg.K, cfg.M) == (3, 20, 4)
        assert cfg.mode is Mode.EQUALITY
        assert cfg.seed == 1234
        assert cfg.p_unknown == 0.25
        assert cfg.shop_teach_rate == 0.0
        assert cfg.epsilon == 1e-12
        assert cfg.record_every == 1
        assert cfg.shop_counts == (1, 1, 1)

    def test_full_file(self):
        cfg = parse_config_text(
            """
            N = 2
            K = 30
            M = 5
            mode = Hierarchy   # case-insensitive
            seed = 98765
            p_copy = 0.75
            p_unknown = 0.1
            leader_count = 2
            leader_pupils = 3
            aligned_leader_brand = 1
            shop_counts = 4, 2
            shop_teach_rate = 1.5
            epsilon = 1e-9
            max_sweeps = 500
            record_every = 10
            """
        )
        assert cfg.mode is Mode.HIERARCHY
        assert cfg.p_copy == 0.75
        assert cfg.shop_counts == (4, 2)
        assert cfg.aligned_leader_brand == 1
        assert cfg.epsilon == 1e-9

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(MINIMAL + "\nbogus = 3\n")
        assert "bogus" in str(exc.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(MINIMAL + "\nK = 5\n")
        assert "duplicate" in str(exc.value)

    def test_missing_required(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text("N = 2\nK = 5\nM = 1\nmode = equality\n")
        assert "seed" in str(exc.value)

    def test_range_error_names_key(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(MINIMAL + "\np_copy = 1.5\n")
        assert "p_copy" in str(exc.value)

    @pytest.mark.parametrize("key, text", [
        ("max_sweeps", "soon"), ("p_copy", "half"), ("mode", "anarchy"), ("shop_counts", "1,,2"),
    ], ids=["max_sweeps", "p_copy", "mode", "shop_counts"])
    def test_type_error_names_key(self, key, text):
        # one malformed value per kind: int, float, Mode and int list
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(key)]
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text("\n".join(lines) + f"\n{key} = {text}\n")
        assert key in str(exc.value)
        assert repr(text) in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("N 2\n")

    def test_empty_value(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("N =\n")

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(MINIMAL.replace("equality", "anarchy"))
        assert "mode" in str(exc.value)

    def test_n_beyond_memory_is_config_error(self):
        # the default shop counts would be a tuple of 10**17 entries, which the
        # allocator refuses at once
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text("N = 100000000000000000\nK = 2\nM = 1\n"
                              "mode = equality\nseed = 1\n")
        assert "N" in str(exc.value)


# no decimal digit of any script, so int() never parses it into a size
_no_digits = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
_ints = st.integers(min_value=-(10**40), max_value=10**40)
_floats = st.one_of(st.floats(), st.sampled_from(["nan", "inf", "-inf", "1e400", "0x1p-3"]))
_probability = st.floats(min_value=0.0, max_value=1.0)
# per key: (values that are often valid, anything of the right kind); N sizes the
# default shop counts, so it stays small or so large that no allocation is tried
_VALUES = {
    "N": (st.integers(1, 4), st.one_of(st.integers(-3, 300),
                                       st.sampled_from([10**17, 10**18, 10**30]))),
    "K": (st.integers(2, 30), _ints),
    "M": (st.integers(1, 5), _ints),
    "mode": (st.sampled_from(["equality", "Hierarchy"]), st.just("anarchy")),
    "seed": (st.integers(0, 2**64 - 1), st.integers(-2, 2**65)),
    "p_copy": (_probability, _floats),
    "p_unknown": (_probability, _floats),
    "leader_count": (st.integers(0, 3), _ints),
    "leader_pupils": (st.integers(0, 3), _ints),
    "aligned_leader_brand": (st.integers(0, 3), _ints),
    "shop_counts": (st.lists(st.integers(1, 3), min_size=1, max_size=4),
                    st.lists(_ints, min_size=1, max_size=6)),
    "shop_teach_rate": (st.floats(min_value=0.0, max_value=10.0), _floats),
    "epsilon": (st.floats(min_value=1e-300, max_value=1.0), _floats),
    "max_sweeps": (st.integers(1, 100), _ints),
    "record_every": (st.integers(1, 100), _ints),
}
_REQUIRED = ("N", "K", "M", "mode", "seed")


@st.composite
def config_texts(draw):
    """Config files with any subset of keys, odd values and stray lines."""
    lines = []
    for key, (usual, wild) in _VALUES.items():
        if key in _REQUIRED and draw(st.integers(0, 19)) or draw(st.booleans()):
            kind = draw(st.integers(0, 19))
            value = draw(usual if kind > 1 else wild if kind else _no_digits)
            if isinstance(value, list):
                value = ", ".join(map(str, value))
            lines.append(f"{key} = {value}")
    if not draw(st.integers(0, 9)):
        lines.append(draw(_no_digits))
    return "\n".join(draw(st.permutations(lines)))


class TestParseAnyText:
    @settings(max_examples=300, deadline=None)
    @given(config_texts())
    def test_config_or_configuration_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigurationError:
            return
        assert isinstance(cfg, SimConfig)
        assert len(cfg.shop_counts) == cfg.N


@st.composite
def sim_configs(draw):
    """Any valid SimConfig with small N, K and M."""
    N = draw(st.integers(1, 4))
    K = draw(st.integers(2, 30))
    leader_count = draw(st.integers(0, K - 1))
    rate = draw(st.just(0.0) | st.floats(0.0, 10.0))
    # at rate 0 no shop event is drawn, so any count is valid
    max_count = 10**30 if rate == 0.0 else 10**6
    return SimConfig(
        N=N,
        K=K,
        M=draw(st.integers(1, 5)),
        mode=draw(st.sampled_from(Mode)),
        seed=draw(st.integers(0, 2**64 - 1)),
        p_copy=draw(st.floats(0.0, 1.0)),
        p_unknown=draw(st.floats(0.0, 1.0)),
        leader_count=leader_count,
        leader_pupils=draw(st.integers(0, K - max(leader_count, 1))),
        aligned_leader_brand=draw(st.none() | st.integers(0, N - 1)),
        shop_counts=draw(st.none() | st.lists(st.integers(1, max_count), min_size=N,
                                              max_size=N).map(tuple)),
        shop_teach_rate=rate,
        epsilon=draw(st.floats(0.0, exclude_min=True)),
        max_sweeps=draw(st.integers(1, 10**9)),
        record_every=draw(st.integers(1, 10**9)),
    )


def config_lines(cfg):
    """``cfg`` as config-file lines: no line for a None, repr for a number."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, Mode):
            text = value.value
        elif isinstance(value, tuple):
            text = ", ".join(map(repr, value))
        else:
            text = repr(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(sim_configs())
    def test_written_config_parses_back_equal(self, cfg):
        assert parse_config_text(config_lines(cfg)) == cfg


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        cfg = load_config(path)
        assert cfg == parse_config_text(MINIMAL)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("N = 3\nK = 20\nM = 4\nmode = equality\nseed = 1234\n",
                        encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfN = 3")
        assert load_config(path) == parse_config_text(MINIMAL)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

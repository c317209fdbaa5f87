import pytest

from brandsim import ConfigurationError, Mode, SimConfig, load_config, parse_config_text

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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("N", 0),
            ("K", 1),
            ("M", 0),
            ("p_copy", 1.5),
            ("p_copy", -0.1),
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

    def test_leader_count_equal_k_rejected(self):
        with pytest.raises(ConfigurationError):
            self.base(K=5, leader_count=5)

    def test_pupils_cannot_exceed_non_leaders(self):
        with pytest.raises(ConfigurationError) as exc:
            self.base(K=5, leader_count=2, leader_pupils=4)
        assert "leader_pupils" in str(exc.value)
        # fine without leaders: the channel is inert
        self.base(K=5, leader_count=0, leader_pupils=4)

    def test_shop_event_total_must_fit_one_draw(self):
        with pytest.raises(ConfigurationError):
            self.base(shop_teach_rate=1.0, shop_counts=(1, 10**400))
        # fine when the channel is off: no shop event is ever drawn
        self.base(shop_teach_rate=0.0, shop_counts=(1, 10**400))

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

    def test_type_error_names_key(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config_text(MINIMAL + "\nmax_sweeps = soon\n")
        assert "max_sweeps" in str(exc.value)

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


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        cfg = load_config(path)
        assert cfg == parse_config_text(MINIMAL)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

"""Arrival processes: grammar, validation, and substream determinism."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.service import ArrivalProcess, parse_arrival_spec
from repro.sim.rng import StreamRng


def _times(proc, seed, n):
    rng = StreamRng(seed, "svc", "arrival")
    gaps = proc.gaps(rng)
    out, t = [], 0.0
    for _ in range(n):
        t += next(gaps)
        out.append(t)
    return out


class TestGrammar:
    def test_bare_kind_uses_defaults(self):
        assert parse_arrival_spec("poisson") == ArrivalProcess()

    def test_poisson_rate(self):
        p = parse_arrival_spec("poisson:rate=2e5")
        assert p.kind == "poisson" and p.rate == 2e5

    def test_bursty_keys(self):
        p = parse_arrival_spec("bursty:rate=2e5,burst=8,p=0.1")
        assert (p.kind, p.rate, p.burst_factor, p.p_switch) == \
            ("bursty", 2e5, 8.0, 0.1)

    def test_diurnal_unit_suffixes(self):
        p = parse_arrival_spec("diurnal:rate=2e5,period=2ms,depth=0.8")
        assert p.period == pytest.approx(2e-3)
        assert p.depth == 0.8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_arrival_spec("fractal:rate=1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="key"):
            parse_arrival_spec("poisson:pace=1e5")

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0}, {"rate": -1.0}, {"burst_factor": 0.5},
        {"p_switch": 1.5}, {"period": 0.0}, {"depth": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ArrivalProcess(**kwargs)

    @pytest.mark.parametrize("spec, named", [
        ("poisson:rate=nan", "rate='nan'"),
        ("poisson:rate=inf", "rate='inf'"),
        ("bursty:rate=1e5,burst=nan", "burst='nan'"),
        ("diurnal:rate=1e5,period=infs", "period='infs'"),
        ("diurnal:rate=1e5,depth=nan", "depth='nan'"),
    ])
    def test_non_finite_values_are_named(self, spec, named):
        with pytest.raises(ConfigError, match="is not a finite number") as err:
            parse_arrival_spec(spec)
        assert str(err.value).startswith(f"arrival spec: {named} ")

    @pytest.mark.parametrize("kwargs", [
        {"rate": float("nan")}, {"rate": float("inf")},
        {"burst_factor": float("nan")}, {"burst_factor": float("inf")},
        {"period": float("nan")}, {"period": float("inf")},
    ], ids=lambda kw: f"{next(iter(kw))}={next(iter(kw.values()))}")
    def test_non_finite_values_fail_the_range_checks(self, kwargs):
        """API callers bypass the grammar: NaN compares False with
        everything, so ``rate <= 0`` let it through; infinity makes a
        zero or undefined gap."""
        with pytest.raises(ConfigError, match="finite"):
            ArrivalProcess(**kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_same_seed_same_timestamps(self, kind):
        proc = ArrivalProcess(kind=kind, rate=1e5)
        assert _times(proc, 42, 200) == _times(proc, 42, 200)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_different_seed_different_timestamps(self, kind):
        proc = ArrivalProcess(kind=kind, rate=1e5)
        assert _times(proc, 1, 50) != _times(proc, 2, 50)

    def test_gaps_positive_and_finite(self):
        for kind in ("poisson", "bursty", "diurnal"):
            for t0, t1 in itertools.pairwise(
                    _times(ArrivalProcess(kind=kind, rate=1e5), 7, 300)):
                assert t1 > t0
                assert t1 - t0 < 1.0  # no pathological gap at rate 1e5

    def test_poisson_mean_rate_roughly_right(self):
        times = _times(ArrivalProcess(rate=1e5), 11, 2000)
        observed = len(times) / times[-1]
        assert 0.9e5 < observed < 1.1e5

    def test_bursty_modulates_rate(self):
        """Hot-state gaps must be visibly shorter than cold-state gaps."""
        proc = ArrivalProcess(kind="bursty", rate=1e5, burst_factor=8.0,
                              p_switch=0.05)
        times = _times(proc, 5, 2000)
        gaps = sorted(b - a for a, b in itertools.pairwise(times))
        # With x8 modulation the fastest decile is far below the
        # slowest decile (a plain Poisson stream is ~30x between these
        # quantiles; MMPP at x64 ratio of rates stretches it further).
        assert gaps[len(gaps) // 10] * 100 < gaps[-len(gaps) // 10]

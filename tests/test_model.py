"""Closed-form cost model: efficiency prediction, margin check, reconciliation."""

from fractions import Fraction

import pytest

from slidefft.model import (CostModel, EfficiencyReport, alpha, check_margin,
                            flops_per_transform, predict_efficiency, reconcile)


def test_flops_per_transform():
    assert flops_per_transform(1) == 0
    assert flops_per_transform(2) == 10
    assert flops_per_transform(8) == 120
    assert flops_per_transform(1 << 17) == 11141120
    with pytest.raises(ValueError):
        flops_per_transform(12)


def test_alpha_ratio():
    assert alpha(CostModel(a=2, b=3)) == Fraction(2, 3)
    assert alpha(CostModel(a=0)) == 0
    assert alpha(CostModel(a=5, b=5)) == 1


def test_free_transfer_is_perfectly_efficient():
    report = predict_efficiency(CostModel(a=0), 1 << 10, 10)
    assert report.eta == 1
    assert report.eta_first_order == 1


def test_default_prediction_is_exact_rational():
    report = predict_efficiency(CostModel(), 1 << 17, 17)
    assert report.eta == Fraction(255, 257)
    assert report.alpha == Fraction(2, 3)
    assert report.flops == 11141120


def test_first_order_expansion_is_close():
    """eta = 1/(1 + x) vs 1 - x agree to second order in x = alpha/(5m)."""
    model = CostModel()
    for m in (5, 10, 17, 24):
        report = predict_efficiency(model, 1 << m, m)
        x = alpha(model) / (5 * m)
        assert report.eta_first_order == 1 - x
        assert abs(report.eta - report.eta_first_order) < x ** 2


def test_margin_at_seventeen_levels():
    margin = check_margin(CostModel(), 17)
    assert margin.margin == Fraction(2, 255)
    assert margin.threshold == Fraction(1, 20)
    assert margin.passed


def test_margin_fails_when_transfer_dominates():
    assert not check_margin(CostModel(a=8, b=1), 2).passed


def test_efficiency_rises_with_depth():
    model = CostModel()
    etas = [predict_efficiency(model, 1 << m, m).eta for m in range(2, 20)]
    assert all(lo < hi for lo, hi in zip(etas, etas[1:]))
    # and approaches unity
    assert 1 - predict_efficiency(model, 1 << 60, 60).eta < Fraction(1, 400)


def test_size_enters_only_through_depth():
    """The transform length cancels: eta(n, m) == 5bm / (a + 5bm)."""
    model = CostModel(a=2, b=3)
    for m in (1, 5, 12, 17):
        report = predict_efficiency(model, 1 << m, m)
        assert report.eta == Fraction(5 * 3 * m, 2 + 5 * 3 * m)


def test_efficiency_falls_with_dearer_transfer():
    etas = [predict_efficiency(CostModel(a=a), 1 << 10, 10).eta
            for a in (1, 2, 4, 8)]
    assert all(hi > lo for hi, lo in zip(etas, etas[1:]))


def test_doubled_transfer_halves_the_ratio_terms():
    single = predict_efficiency(CostModel(), 1 << 10, 10)
    double = predict_efficiency(CostModel(doubled_transfer=True), 1 << 10, 10)
    assert double.eta < single.eta
    # doubling a is the same thing
    assert double.eta == predict_efficiency(CostModel(a=4), 1 << 10, 10).eta


def test_fractional_rates_stay_exact():
    report = predict_efficiency(CostModel(a=Fraction(1, 2), b=Fraction(3, 2)),
                                1 << 4, 4)
    assert report.eta == Fraction(5 * Fraction(3, 2) * 4 * 16,
                                  Fraction(1, 2) * 16 + 5 * Fraction(3, 2) * 4 * 16)
    assert CostModel(a=0.3).a == Fraction(3, 10)      # a float means its decimal text


def test_reconcile_relative_gap():
    predicted = EfficiencyReport(eta=Fraction(1, 2))
    assert reconcile(predicted, EfficiencyReport(eta=Fraction(1, 2))) == 0
    assert reconcile(predicted, EfficiencyReport(eta=Fraction(3, 8))) == Fraction(1, 4)
    assert reconcile(Fraction(1, 2), Fraction(5, 8)) == Fraction(1, 4)
    with pytest.raises(ValueError, match="zero prediction"):
        reconcile(0, Fraction(1, 2))


def test_validation():
    with pytest.raises(ValueError):
        CostModel(a=-1)
    with pytest.raises(ValueError):
        CostModel(b=0)
    with pytest.raises(ValueError):
        predict_efficiency(CostModel(), 12, 4)
    with pytest.raises(ValueError, match="m >= 1"):
        predict_efficiency(CostModel(), 1, 0)
    with pytest.raises(ValueError, match="m >= 1"):
        check_margin(CostModel(), 0)
    with pytest.raises(ValueError):
        EfficiencyReport(eta=Fraction(3, 2))

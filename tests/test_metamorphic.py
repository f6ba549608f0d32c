"""Metamorphic runs: the same certified point set from transformed jobs.

Each job below describes the Flynn curve in a way the program cannot tell
from a fresh input.  A correct certificate must come out `complete` with
the same ten rational points, mapped back to the original model.  Each
machine report is also pinned byte for byte: the sha256 of the report
without its telemetry block, rendered as the CI golden-report step
renders it, and the escalation count, which lives in that block.  Four
Chabauty primes whose data leave classes end `inconclusive`; their
reports are pinned the same way.  Every run checked here also keeps the
soundness contract of `contract.py`.
"""

import hashlib
import json
import os
from fractions import Fraction

from g2points import coleman, sieve
from g2points.cli import emit_report, parse_config, run_job

from contract import assert_lists_naive_points, naive_points, point_keys

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "flynn.json")
with open(FIXTURE, encoding="utf-8") as fh:
    FLYNN_JOB = json.load(fh)

# every rational point of the Flynn curve (naive search to height 1000;
# test_flynn_points_are_the_naive_points checks them to height 150)
FLYNN_POINTS = frozenset(
    ["infinity"]
    + [(Fraction(x), Fraction(0)) for x in (0, 1, 2, 5, 6)]
    + [(Fraction(3), Fraction(s * 6)) for s in (1, -1)]
    + [(Fraction(10), Fraction(s * 120)) for s in (1, -1)])


def _translate(coeffs, k):
    """Ascending coefficients of c(X + k) by Horner in X + k."""
    out = []
    for c in reversed(coeffs):
        out = [Fraction(0)] + out
        for i in range(len(out) - 1):
            out[i] += k * out[i + 1]
        out[0] += Fraction(c)
    return [int(c) if c.denominator == 1 else str(c) for c in out]


def _translated_divisor(div, k, negate=False):
    v = _translate(div["v_coeffs"], k) if div["v_coeffs"] else []
    return dict(div, u_coeffs=_translate(div["u_coeffs"], k),
                v_coeffs=[-c for c in v] if negate else v)


def _run(job):
    """The run of a job, its machine report without telemetry, and that
    report's sha256."""
    rep = run_job(parse_config(json.dumps(job)))
    report = json.loads(emit_report(rep, "machine"))
    report.pop("telemetry")
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return rep, report, hashlib.sha256(text.encode()).hexdigest()


def _checked_points(rep, shift=0):
    """The run's points read back on the Flynn model, once the contract
    holds for them."""
    out = point_keys([rec.point for rec in rep.result.points], shift)
    assert_lists_naive_points(FLYNN_JOB["f_coeffs"], rep.status, out)
    return out


def _points(job, digest, escalations, shift=0):
    rep, _, got = _run(job)
    assert rep.status == "complete", rep.closing
    assert got == digest
    assert rep.result.escalations == escalations
    out = _checked_points(rep, shift)
    assert len(rep.result.points) == len(out)
    return out


def test_flynn_points_are_the_naive_points():
    assert naive_points(FLYNN_JOB["f_coeffs"]) == FLYNN_POINTS


def _translated_job(k):
    # X = x - k: the model y^2 = f(X + k) with generator -gamma; a point
    # (X, y) of the new model is (X + k, y) on the original one
    return dict(FLYNN_JOB,
                f_coeffs=_translate(FLYNN_JOB["f_coeffs"], k),
                generator=_translated_divisor(FLYNN_JOB["generator"], k,
                                              negate=True),
                torsion=[_translated_divisor(t, k)
                         for t in FLYNN_JOB["torsion"]])


def test_other_chabauty_prime():
    job = dict(FLYNN_JOB, chabauty_prime=11, aux_primes=[7, 13, 17, 23])
    assert _points(job, "81fc88d138df2d79faccd65f3417c3f3f4592125a4ac6de6"
                        "affa47e9b0581419", 0) == FLYNN_POINTS


def test_inconclusive_chabauty_primes():
    # aux primes: the other primes of {7, 11, 13, 17, 23}.  At 19 and 23
    # the surviving classes outlive a deepen that raises the modulus, so
    # their count and sample are read at the new N; 31 is the only
    # Chabauty prime up to 37 whose run escalates: discs (11, 8) and
    # (11, 23) each need 40 digits
    for p, left, digest, escalations in (
            (17, 2, "c4da5c5689c16bdf71dccd2eca0c2b86"
                    "920b023b31ab72f13e2f8f3e69df93a0", 0),
            (19, 10, "b03f329f166307c980b894b8b079b9c5"
                     "6638ef8a54b2c15693bf5963f3fcbd45", 0),
            (23, 528, "d4e91536417b463851d89dfef0a0d6b4"
                      "09f004bf9cc731c7d390c5ce3ac5f2f8", 0),
            (31, 4, "bd07031426691a08071f358bce65bf86"
                    "b0b86b4a6068dae3aca5512965f9a9af", 2)):
        aux = [q for q in (7, 11, 13, 17, 23) if q != p]
        job = dict(FLYNN_JOB, chabauty_prime=p, aux_primes=aux)
        rep, report, got = _run(job)
        _checked_points(rep)
        assert rep.status == "inconclusive", p
        assert report["surviving_classes"]["count"] == left
        assert got == digest, p
        assert rep.result.escalations == escalations
        # a run is one round: one search and one deepening
        assert report["iterations"] == 1
        steps = [e["step"] for e in report["sieve_trace"]]
        assert steps.count("search") == steps.count("deepen") == 1


def test_chabauty_primes_that_frame_extension_discs(monkeypatch):
    # the kernel logs of these runs read residue discs over F_{p^2}, whose
    # centers lie in Q_p(sqrt(c)); no job of the byte-identity set frames
    # one.  The digests are the ones taken while those centers were still
    # square roots with a sign picked off the label
    labels = []
    real = coleman.disc_center

    def recorded(C, label, *args, **kwargs):
        labels.append(label)
        return real(C, label, *args, **kwargs)

    monkeypatch.setattr(coleman, "disc_center", recorded)
    for p, status, left, digest in (
            (13, "complete", 0, "0f91babed53787aacc0c378d609837ed"
                                "d2376003eafc6cf50a0fc08dc458d6b5"),
            (29, "inconclusive", 1236, "0d4e5563c4e65d265f57db0e417bbcf6"
                                       "ef086f014f4d1f39fc5fc5dc9fcc8c07")):
        labels.clear()
        aux = [q for q in (7, 11, 13, 17, 23) if q != p]
        rep, report, got = _run(dict(FLYNN_JOB, chabauty_prime=p,
                                     aux_primes=aux))
        assert _checked_points(rep) == FLYNN_POINTS
        assert rep.status == status, p
        assert report["surviving_classes"]["count"] == left
        assert got == digest, p
        assert rep.result.escalations == 0
        assert report["iterations"] == 1
        assert any(label[0] == "ext" for label in labels), p


def test_chabauty_prime_37_reads_one_log_per_pair(monkeypatch):
    # the 36 affine discs of C(F_37) are 18 iota-pairs, and deepen reads
    # the second center's log of each pair from the first: 18 center logs
    # and gamma's.  The digest is the one pinned before that hand-off
    calls = []
    real = coleman.log_jacobian

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(coleman, "log_jacobian", counted)
    monkeypatch.setattr(sieve, "log_jacobian", counted)
    job = dict(FLYNN_JOB, chabauty_prime=37, aux_primes=[7, 11, 13, 17, 23])
    rep, report, got = _run(job)
    _checked_points(rep)
    assert rep.status == "inconclusive"
    assert report["surviving_classes"]["count"] == 46
    assert rep.result.escalations == 0
    assert report["iterations"] == 1
    steps = [e["step"] for e in report["sieve_trace"]]
    assert steps.count("search") == steps.count("deepen") == 1
    assert got == ("7c484fcb98c3d3d9150105d447aeeaff"
                   "c1b3265e9afe0fa5681f7be4641622fc")
    assert calls == [37] * 19


def test_every_good_aux_prime_up_to_47():
    # the context drops p = 7 and the primes of bad reduction; N is
    # 152245152018960, so the class set is only ever held at the period
    # of the passes and excisions that read it
    aux = [q for q in range(3, 48) if all(q % d for d in range(2, q))]
    rep, report, _ = _run(dict(FLYNN_JOB, aux_primes=aux))
    assert rep.status == "complete", rep.closing
    assert report["modulus"] == 152245152018960
    assert _checked_points(rep) == FLYNN_POINTS


def test_an_aux_prime_above_fifty():
    # J(F_61) is never listed: its exponent is certified one Sylow
    # subgroup at a time, so the p <= 50 limit of full listing does not
    # reach the run
    rep, report, _ = _run(dict(FLYNN_JOB, aux_primes=[11, 13, 17, 23, 61]))
    assert rep.status == "complete", rep.closing
    assert 61 in report["aux_primes"]
    assert _checked_points(rep) == FLYNN_POINTS


def test_translated_model_and_negated_generator():
    job = _translated_job(1)
    assert job["f_coeffs"] == [0, -20, 9, 19, -9, 1]
    assert _points(job, "b1ead11ed03a0979819c592d3c14343ef25d65c3d257ef7a"
                        "9a4bbd904375c736", 0, shift=1) == FLYNN_POINTS


def test_model_translated_the_other_way():
    job = _translated_job(-1)
    assert _points(job, "7feffdb90c27ed4671684b4d74d696e03b6f3a1141e684aa"
                        "3bceca0f8af9a1c2", 0, shift=-1) == FLYNN_POINTS


def test_low_working_precision():
    # precision 4 needs both escalations of the budget; precision 8 none
    for precision, digest, escalations in (
            (8, "f4653b27357c2ac0625511a4fa8acb1a"
                "87481c10810620858106b1866449d03c", 0),
            (4, "68e1b0ae3cd21ffae98ed2bbef7f1c4f"
                "8da4961ba3ce0e8abb9ec1085124b032", 2)):
        job = dict(FLYNN_JOB, precision=precision)
        assert _points(job, digest, escalations) == FLYNN_POINTS

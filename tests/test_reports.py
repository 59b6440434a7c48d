"""Pinned report bytes: one small job per variety command, and tower checks.

Each report of `cli.run_job` is serialized as `json.dumps(report,
sort_keys=True)` and compared by its sha256 with the value it had when the
pin was taken.  A refactor that must keep reports byte-identical keeps these
hashes; a change that alters a report on purpose re-pins it and says so.
"""

import hashlib
import json

import pytest

from optdeg import cli

GF = "prime:2147483647"
CONIC = "3*x1^2+2*x1*x2+5*x2^2+x2*x3+4*x3^2"
NODAL_CONE = "x2^2*x3-x1^2*(x1+x3)"
TWISTED_CUBIC = ["x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"]
SEEDED_CONIC = "50*x1^2+2*x1*x2-30*x1*x3+31*x2^2-14*x2*x3+35*x3^2"
SEEDED_CONIC_P2 = "10*x1^2+28*x1*x2+16*x1*x3+49*x2^2+50*x2*x3+19*x3^2"
SEEDED_SEGRE_QUADRIC = ("12*x1^2+27*x1*x2+24*x1*x3+27*x1*x4+17*x2^2"
                        "+33*x2*x3+30*x2*x4+16*x3^2+23*x3*x4+7*x4^2")
SEEDED_RATIONAL_NORMAL_CONIC = ("19*x1^2+22*x1*x2+17*x1*x3-6*x2^2-5*x2*x3"
                                "-3*x3^2")
SEEDED_FERMAT_CUBIC = ("-54*x1^3-135*x1^2*x2+54*x1^2*x3-225*x1*x2^2"
                       "+450*x1*x2*x3-306*x1*x3^2+525*x2^2*x3-315*x2*x3^2"
                       "+106*x3^3")
SEEDED_TWISTED_CUBIC = [
    "-3*x1^2-11*x1*x2+10*x1*x3-6*x1*x4-16*x2^2+37*x2*x3-27*x2*x4-23*x3^2"
    "+34*x3*x4-7*x4^2",
    "x1^2+13*x1*x2-14*x1*x3+2*x1*x4+12*x2^2-21*x2*x3+3*x2*x4+9*x3^2"
    "+2*x3*x4-7*x4^2",
    "-5*x1^2-14*x1*x2+12*x1*x3+4*x1*x4-x2^2-2*x2*x3+14*x2*x4+x3^2"
    "-6*x3*x4-7*x4^2",
]

# the cuspidal and limacon curves of the affine-sweep benchmark at seed 1, in
# its coordinates, with the seeds of their p = 3 jobs over QQ and over GF
SEEDED_SINGULAR_CURVES = [
    ("cusp-1", "-64*x1^3-96*x1^2*x2-40*x1^2-48*x1*x2^2-32*x1*x2-4*x1-8*x2^3"
     "-4*x2^2+2*x2+1", (313742405, 263322001)),
    ("cusp-2", "-32*x1^3+48*x1^2*x2-22*x1^2-24*x1*x2^2+20*x1*x2-4*x1+4*x2^3"
     "-4*x2^2+x2", (757707454, 41128814)),
    ("limacon-1", "25*x1^4+60*x1^3*x2+10*x1^3+56*x1^2*x2^2+22*x1^2*x2-9*x1^2"
     "+24*x1*x2^3+16*x1*x2^2-10*x1*x2-6*x1+4*x2^4+4*x2^3-3*x2^2-4*x2-1",
     (537383785, 105160436)),
    ("limacon-2", "16*x1^4-96*x1^3*x2+224*x1^2*x2^2-16*x1^2*x2-32*x1^2"
     "-240*x1*x2^3+48*x1*x2^2+96*x1*x2+24*x1+100*x2^4-40*x2^3-76*x2^2-32*x2"
     "-5", (77662732, 919743564)),
]


def _job(variables, field, generators, seed=1, trials=2, **extra):
    doc = {"schema_version": 1,
           "ring": {"variables": list(variables), "field": field},
           "variety": {"generators": list(generators)},
           "seed": seed, "trials": trials}
    if trials is None:
        del doc["trials"]
    doc.update(extra)
    return doc


# the README's tower over the ellipse x1^2 + 4*x2^2 = 1
ELLIPSE_TOWER = {"base": ["x1", "x2", "s"],
                 "levels": [{"power": 2, "alpha": "s*x1"},
                            {"power": 2, "alpha": "4*s*x2"}],
                 "parametrization": ["x1", "x2", "x1+D1", "x2+D2"]}
# the hard tower of test_towers.py, with a denominator in a root and in a
# coordinate
HARD_TOWER = {"base": ["t1", "t2", "t3"],
              "levels": [{"power": 2, "alpha": "2*t3^2/(t2-3*t1)"},
                         {"power": 2, "alpha": "-3*t2-3*t3-3"}],
              "parametrization": ["-t1*D1-t1+D2", "3*t3*D1+D2", "D1/(2-2*D2)",
                                  "6", "t3*D2+5"]}


def _tower_job(tower, generators, field=None):
    doc = {"schema_version": 1, "tower": tower,
           "variety": {"generators": list(generators)}}
    if field is not None:
        doc["ring"] = {"field": field}
    return doc


XY = ("x1", "x2")
XYZ = ("x1", "x2", "x3")
XYZW = ("x1", "x2", "x3", "x4")

JOBS = {
    "degree": ("degree", _job(XY, "rational", ["x1^2+4*x2^2-1"],
                              objective={"pnorm": 4})),
    "degree-pinned": ("degree", _job(XY, "rational", ["x1^2+4*x2^2-1"],
                                     objective={"pnorm": 3},
                                     options={"u": ["-6/10", "6/10"]})),
    # the gradient denominators x1*x2 vanish at the node, so the count
    # localizes at the singular locus <x1, x2> times x1*x2
    "degree-rational-gradient": ("degree", _job(
        XY, "rational", ["x2^2-x1^2*(x1+1)"],
        objective={"rational_gradient": ["u1/x1", "u2/x2"]})),
    "projective-degree": ("projective-degree",
                          _job(XYZ, GF, [CONIC], seed=5, options={"p": 2})),
    "projective-degree-twisted-cubic": ("projective-degree",
                                        _job(XYZW, GF, TWISTED_CUBIC,
                                             options={"p": 3})),
    "polar": ("polar", _job(XYZ, GF, [CONIC], seed=2,
                            options={"pnorms": [2, 3]})),
    "conormal": ("conormal", _job(XYZ, GF, [CONIC], options={"s": 1})),
    "joint": ("joint", _job(XYZ, GF, [CONIC], options={"p": 2})),
    "evolute": ("evolute", _job(XY, "rational", ["x1^2+4*x2^2-1"],
                                options={"p": 2})),
    # the cusp's singular locus is not the unit ideal, so both of the
    # evolute's eliminations run
    "evolute-cusp-p3": ("evolute", _job(XY, "rational", ["x2^2-x1^3"],
                                        options={"p": 3})),
    # the three jobs of the evolute-qq benchmark at seed 1
    "evolute-seeded-ellipse-a3-b1": ("evolute", _job(
        XY, "rational", ["x1^2+3*x2^2-1"], seed=743479564, trials=None,
        options={"p": 3})),
    "evolute-seeded-ellipse-a5-b1": ("evolute", _job(
        XY, "rational", ["x1^2+5*x2^2-1"], seed=907843224, trials=None,
        options={"p": 3})),
    "evolute-seeded-ellipse-a4-b2": ("evolute", _job(
        XY, "rational", ["x1^2+4*x2^2-2"], seed=204661426, trials=None,
        options={"p": 3})),
    "gb": ("gb", _job(XY, "rational", ["x1^2+4*x2^2-1"])),
    "crossvalidate-affine": ("crossvalidate",
                             _job(XY, "rational", ["x2^2-x1^2*(x1+1)"],
                                  options={"p": 2})),
    "crossvalidate-projective": ("crossvalidate",
                                 _job(XYZ, GF, [CONIC], seed=5,
                                      options={"p": 3})),
    **{f"crossvalidate-seeded-{name}-p3-{tag}": ("crossvalidate", _job(
        XY, field, [curve], seed=seed, options={"p": 3}))
       for name, curve, seeds in SEEDED_SINGULAR_CURVES
       for (tag, field), seed in zip((("qq", "rational"), ("gf", GF)), seeds)},
    "crossvalidate-nodal-cone": ("crossvalidate",
                                 _job(XYZ, GF, [NODAL_CONE],
                                      options={"p": 2,
                                               "curve": {"d": 3, "g": 0}})),
    # the six jobs of the projective-gf benchmark at seed 1, in its seeded
    # coordinates; the twisted cubic at p = 2 is its slowest job and the
    # conic at p = 3 its median one
    "crossvalidate-seeded-twisted-cubic": ("crossvalidate", _job(
        XYZW, GF, SEEDED_TWISTED_CUBIC, seed=87373158,
        options={"p": 2, "curve": {"d": 3, "g": 0}})),
    "crossvalidate-seeded-conic": ("crossvalidate", _job(
        XYZ, GF, [SEEDED_CONIC], seed=121524608, options={"p": 3})),
    "crossvalidate-seeded-conic-p2": ("crossvalidate", _job(
        XYZ, GF, [SEEDED_CONIC_P2], seed=62347205, options={"p": 2})),
    "crossvalidate-seeded-segre-quadric": ("crossvalidate", _job(
        XYZW, GF, [SEEDED_SEGRE_QUADRIC], seed=325336078,
        options={"p": 2, "segre_veronese": [[2, 1], [2, 1]]})),
    "crossvalidate-seeded-rational-normal-conic": ("crossvalidate", _job(
        XYZ, GF, [SEEDED_RATIONAL_NORMAL_CONIC], seed=18877363,
        options={"p": 3, "curve": {"d": 2, "g": 0}})),
    "crossvalidate-seeded-fermat-cubic": ("crossvalidate", _job(
        XYZ, GF, [SEEDED_FERMAT_CUBIC], seed=463086742,
        options={"p": 2, "curve": {"d": 3, "g": 1}})),
    # the tower job of the affine-sweep benchmark at seed 2
    "tower-check-seeded": ("tower-check", _tower_job(
        {"base": ["x1", "x2", "s"],
         "levels": [{"power": 2, "alpha": "s*x1"},
                    {"power": 2, "alpha": "8*s*x2"}],
         "parametrization": ["x1", "x2", "x1+D1", "x2+D2"]},
        ["x1^2+4*x2^2-6"])),
    "tower-check-ellipse": ("tower-check", _tower_job(ELLIPSE_TOWER,
                                                      ["x1^2+4*x2^2-1"])),
    # an empty restriction: the note and the dimension -1
    "tower-check-unit-restriction": ("tower-check",
                                     _tower_job(ELLIPSE_TOWER, ["1"])),
    "tower-check-hard": ("tower-check", _tower_job(HARD_TOWER,
                                                   ["t2*t3+2*t2+2"], GF)),
}

HASHES = {
    "degree":
        "b02cac0e2e3815a1a70a9965aac4cbe0f1820c548950eb8b7a9b018db5c285dd",
    "degree-pinned":
        "c8d37afce62df58226385938f4071ca37dc4994b3b1be5687104299650e26036",
    "degree-rational-gradient":
        "2f6ca4c005ccdba760096890fc0d0eb75fce4e7a026891f2bbaf9f5dab10d90a",
    "projective-degree":
        "6eacd5eb9d3c8cbc4235aef7d4717c8e5c60ade0bab6be03c7d3015653a9c24d",
    "projective-degree-twisted-cubic":
        "3e046b3472cb24c04d3187d334c59bbb578a4a9d7c67f5a63ba23e83b3451d68",
    "polar":
        "e66a3107e4bd3c8def7a47b333975a4ca2f8f035da902e3e3651cc2dbc5d8ddf",
    "conormal":
        "4e297cbfa657004680a68855e89b5ae5e3657231d9517d4f07c53b1b96e39470",
    "joint":
        "2e676ceabecb8f1e1f65d00a79e8cc7d30d084248fc4b1ae4b3ccc7c7b53ae00",
    "evolute":
        "e22f63f547c1d48bb9e978cd77f97077688eb9d4ea4c68dc74c41ecbe69ef29f",
    "evolute-cusp-p3":
        "3f51320964681b990a0f460b121f5281dd3307501e5f0bae6c11505efe23aeec",
    "evolute-seeded-ellipse-a3-b1":
        "d6926bede1820b73b0fcfe936c674f28effda35b515980e17202e671fb536ea1",
    "evolute-seeded-ellipse-a5-b1":
        "e091313951a9bb99733ea0f23005083dab3b2e12e0da1cc7b05d0462ed871978",
    "evolute-seeded-ellipse-a4-b2":
        "012998f74bc456c9e8eb3d720a3451e686c72d425d232861cddd242b04771686",
    "gb":
        "de600da478fd230b83c9d02b932ea306ed596360d255092b795e761b66b6bde8",
    "crossvalidate-affine":
        "a6d06baf37eed94db1e1243e748bd0333c252c1f2964df85117143a23823d666",
    "crossvalidate-projective":
        "a787fd3e75354230fb3b92422dc26209142337ea897c6a4f52ca1f888ec8646c",
    "crossvalidate-seeded-cusp-1-p3-qq":
        "dc81012b504d6ab0d782966b1dfbf62aa0805695bd4cca5a0c0ce1abee705064",
    "crossvalidate-seeded-cusp-1-p3-gf":
        "9793ba208154b3a7db6d353807767cb91d8b80109e344456c95075b92fbadbfc",
    "crossvalidate-seeded-cusp-2-p3-qq":
        "8dedecee9a46ec001ee72d83271e54fef1912fcfcaadc9e3906c8dcb8ac1adf3",
    "crossvalidate-seeded-cusp-2-p3-gf":
        "c594d53918302f500e1cdc23677e1819965427205ea056ffc04b65708bf1d424",
    "crossvalidate-seeded-limacon-1-p3-qq":
        "705d270d2c772aa0b5a236541e03e54f9c45372310e597f3e74aa817206ce00a",
    "crossvalidate-seeded-limacon-1-p3-gf":
        "eb77d1e64376ac257edf48b06d9b3663cc4afec70b5d5b78ac7a1f3b2538ba3b",
    "crossvalidate-seeded-limacon-2-p3-qq":
        "0d897808a2e116d0e1d07575aa19250c9a034fd35416e20f388ae17ee93722fd",
    "crossvalidate-seeded-limacon-2-p3-gf":
        "a6ed8e76c0b5b7e85a16de554496fd9924dac965aa62addc23ba23b10c120b4b",
    "crossvalidate-nodal-cone":
        "9d3e9f1dbc4c43d7300e655aefa964a6ac2c5cac61697db7c6ec768cae99e5f8",
    "crossvalidate-seeded-twisted-cubic":
        "fce0adb929b72f0c3335e0e1cb673b03a71647d5a6f195ef98c5d9ab92191522",
    "crossvalidate-seeded-conic":
        "7d5526565fdfc25ff5e293e7369feff86db3dd088e42d965cea059187e6d27f9",
    "crossvalidate-seeded-conic-p2":
        "86a9c839249580ba848d1c76e9b0d76bf4595903cae262a05edd9c1d6690f819",
    "crossvalidate-seeded-segre-quadric":
        "8add7021b991e4392b1551f5fe6ee54ae9a65c32f417f078fcef701688f18cc2",
    "crossvalidate-seeded-rational-normal-conic":
        "5b0d69e0f977503626411f2b5d5bed6f972650b6e787148f24b239f0adc43868",
    "crossvalidate-seeded-fermat-cubic":
        "58d9cbb1db705ee02d67e51ff6c1dfaf55bbb6efc1b494e25696bc68ab4456ef",
    "tower-check-seeded":
        "82af52eafe5e82c229b02a2927238eec3c34258e85fe52e9e38cf14157910c91",
    "tower-check-ellipse":
        "39d95e3a5ec7b224ff7eb9c9b49cf7a3f7b3d55b854f9a5f8daad519ee7f8439",
    "tower-check-unit-restriction":
        "22d7f51abe26b2b641667e8b30253673dcdba579de0802c026f0dc834ba24c88",
    "tower-check-hard":
        "12be3ae36f82af0b9af40f276a10c88fe217f16bf44479bf954fd9b8dfcb85be",
}


def report_sha256(command, doc):
    report = cli.run_job(command, json.loads(json.dumps(doc)))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(JOBS))
def test_report_bytes_pinned(name):
    command, doc = JOBS[name]
    assert report_sha256(command, doc) == HASHES[name]

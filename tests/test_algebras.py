import json
import random

from exacthom.algebras import (Coefficients, GradedAlgebra, algebra_from_dict,
                               load_algebra, preset)
from exacthom.fields import GF, QQ
from reference import element, split_product


def test_presets_validate():
    for name in ("dual-numbers", "trunc3", "trunc4", "square-zero-xy"):
        assert preset(name).validate() == []
        assert preset(name, GF(7)).validate() == []


def test_dual_numbers_relations():
    A = preset("dual-numbers")
    x = A.gen(1)
    assert A.multiply(x, x) == A.zero()
    assert A.multiply(element(A, QQ.one), x) == x


def test_trunc3_relations():
    B = preset("trunc3")
    x, x2 = B.gen(1), B.gen(2)
    assert B.multiply(x, x) == x2
    assert B.multiply(x, x2) == B.zero()
    assert B.multiply(x2, x2) == B.zero()


def test_split_multiplication_formula():
    B = preset("trunc3")
    rng = random.Random(5)
    for _ in range(20):
        a = element(B, QQ.of(rng.randint(-3, 3)),
                    {1: QQ.of(rng.randint(-3, 3)),
                     2: QQ.of(rng.randint(-3, 3))})
        b = element(B, QQ.of(rng.randint(-3, 3)),
                    {1: QQ.of(rng.randint(-3, 3)),
                     2: QQ.of(rng.randint(-3, 3))})
        prod = B.multiply(a, b)
        assert prod == split_product(B, a, b)
        assert prod == B.multiply(b, a)


def test_commutativity_violation_reported():
    bad = GradedAlgebra("bad", QQ, ["x", "y"], [1, 1],
                        {(1, 2): (QQ.zero, {1: QQ.one})})
    problems = bad.validate()
    assert any("commutativity" in p for p in problems)


def test_scalar_part_violation_reported():
    bad = GradedAlgebra("bad", QQ, ["x"], [1], {(1, 1): (QQ.one, {})})
    assert any("augmentation" in p for p in bad.validate())


def test_grading_violation_reported():
    bad = GradedAlgebra("bad", QQ, ["x"], [1], {(1, 1): (QQ.zero, {1: QQ.one})})
    assert any("grading" in p for p in bad.validate())


def test_associativity_violation_reported():
    # x*x = y, x*y = x breaks (xx)x = yx vs x(xy) = xx = y
    bad = GradedAlgebra(
        "bad", QQ, ["x", "y"], [1, 2],
        {(1, 1): (QQ.zero, {2: QQ.one}),
         (1, 2): (QQ.zero, {1: QQ.one}),
         (2, 1): (QQ.zero, {1: QQ.one})})
    assert any("associativity" in p or "grading" in p for p in bad.validate())


def test_module_actions():
    A = preset("trunc3")
    ck = Coefficients(A, "k")
    cA = Coefficients(A, "A")
    assert ck.basis() == [0]
    assert cA.basis() == [0, 1, 2]
    assert ck.act(0, 0) == [(0, QQ.one)]
    assert ck.act(1, 0) == []
    assert cA.act(1, 1) == [(2, QQ.one)]
    assert cA.act(1, 2) == []


def test_algebra_file_round_trip(tmp_path):
    data = {
        "name": "two-vars",
        "field": "Q",
        "generators": [{"symbol": "x", "weight": 1},
                       {"symbol": "y", "weight": 1},
                       {"symbol": "q", "weight": 2}],
        "products": [
            {"left": "x", "right": "y", "result": {"q": "1"}},
            {"left": "x", "right": "x", "result": {}},
            {"left": "y", "right": "y", "result": {}},
        ],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    alg = load_algebra(path)
    assert alg.validate() == []
    assert alg.multiply(alg.gen(1), alg.gen(2)) == alg.gen(3)
    # one-sided product specifications are mirrored
    assert alg.multiply(alg.gen(2), alg.gen(1)) == alg.gen(3)


def test_algebra_file_field_override():
    data = {
        "name": "dual",
        "field": "Q",
        "generators": [{"symbol": "x", "weight": 1}],
        "products": [],
    }
    alg = algebra_from_dict(data, field_override=GF(5))
    assert alg.field == GF(5)


def test_fractional_coefficients_parse():
    data = {
        "name": "halved",
        "field": "Q",
        "generators": [{"symbol": "x", "weight": 1},
                       {"symbol": "q", "weight": 2}],
        "products": [{"left": "x", "right": "x", "result": {"q": "1/2"}}],
    }
    alg = algebra_from_dict(data)
    assert alg.validate() == []
    assert alg.multiply(alg.gen(1), alg.gen(1)) \
        == element(alg, QQ.zero, {2: QQ.of(1, 2)})


def test_dim_of_weight():
    B = preset("trunc3")
    assert [B.dim_of_weight(w) for w in range(4)] == [1, 1, 1, 0]

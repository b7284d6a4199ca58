import pytest

from cominuscule import foliations
from cominuscule.foliations import (
    cayley_family,
    foliation_atlas,
    orthogonal_family,
    rect_family,
    symplectic_family,
)
from cominuscule.catalog import parse_space
from cominuscule.partitions import (
    min_twist_lagr_oracle,
    min_twist_spinor_oracle,
)
from cominuscule.plethysm import DecompositionError


def test_rect_family_square_case():
    (report,) = rect_family(3, 6, 4)
    assert report.minimal
    assert (report.params["d"], report.params["e"]) == (2, 2)
    assert (report.l, report.degree) == (4, -1)
    assert (report.tf_rank, report.tf_c1) == (5, 2)
    assert report.parameter_space == "Flag(1, 5; C^6)"


def test_rect_family_degree_zero_case():
    (report,) = rect_family(2, 5, 3)
    assert report.minimal
    assert (report.params["d"], report.params["e"]) == (3, 1)
    assert (report.l, report.degree) == (4, 0)
    assert report.tf_rank == 2 * 3 - 3
    assert report.tf_c1 == 5 - 4


def test_rect_family_araujo_druel_subcase():
    reports = rect_family(3, 10, 12)
    minimal = [r for r in reports if r.minimal]
    assert len(minimal) == 1
    r = minimal[0]
    assert r.kind == "araujo_druel"
    assert (r.params["d"], r.params["e"], r.params["m"]) == (4, 3, 3)
    assert (r.l, r.degree) == (7, -6)
    assert r.tf_c1 == 10 - 7
    assert any("n - m = 7" in note for note in r.notes)
    # the 6 x 2 rectangle also fits the box but is not of minimal degree
    others = [r for r in reports if not r.minimal]
    assert [(r.params["d"], r.params["e"]) for r in others] == [(6, 2)]
    assert others[0].l == 8


def test_rect_family_emits_both_orientations():
    reports = rect_family(3, 8, 6)
    minimal = [(r.params["d"], r.params["e"]) for r in reports if r.minimal]
    assert set(minimal) == {(3, 2), (2, 3)}
    for r in reports:
        if r.minimal:
            assert r.tf_c1 == 8 - 5 and r.degree == 5 - 6 - 1


def test_rect_family_no_rectangle():
    assert rect_family(2, 6, 5) == []


def test_rect_family_validation():
    with pytest.raises(ValueError):
        rect_family(3, 5, 2)  # needs n >= 2k
    with pytest.raises(ValueError):
        rect_family(2, 6, 9)


def test_rect_family_range_errors_name_the_bad_argument():
    # rect's own p check used to come first and answer "p=1 out of range 1..0"
    with pytest.raises(ValueError, match=r"^k=0 out of range for n=5$"):
        rect_family(0, 5, 1)
    with pytest.raises(ValueError, match=r"^p=7 out of range 1\.\.6 for \(2,5\)$"):
        rect_family(2, 5, 7)


def test_symplectic_family_values():
    fam = symplectic_family(3, 2)
    assert (fam.p, fam.l, fam.degree) == (3, 3, -1)
    assert fam.parameter_space == "IG(1, C^6)"
    fam = symplectic_family(5, 1)
    assert (fam.p, fam.l, fam.degree) == (1, 2, 0)
    fam = symplectic_family(5, 3)
    assert (fam.p, fam.l, fam.degree) == (6, 4, -3)
    assert fam.tf_rank == 15 - 6 and fam.tf_c1 == 6 - 4
    with pytest.raises(ValueError):
        symplectic_family(4, 4)


@pytest.mark.parametrize("family, closed_form, message", [
    (symplectic_family, "min_twist_lagr",
     "symplectic family twist l=3 at a=2, p=3 must be minimal, "
     "the closed form gives 4"),
    (orthogonal_family, "min_twist_spinor",
     "orthogonal family twist l=4 at a=2, p=3 must be minimal, "
     "the closed form gives 5"),
])
def test_a_family_twist_off_its_closed_form_names_both(monkeypatch, family,
                                                       closed_form, message):
    real = getattr(foliations, closed_form)
    monkeypatch.setattr(foliations, closed_form, lambda p: real(p) + 1)
    with pytest.raises(DecompositionError) as exc:
        family(5, 2)
    assert str(exc.value) == message


def test_orthogonal_family_values():
    fam = orthogonal_family(5, 2)
    assert (fam.p, fam.l, fam.degree) == (3, 4, 0)
    assert fam.parameter_space == "OG(2, C^10)"
    fam = orthogonal_family(5, 1)
    assert (fam.p, fam.l, fam.degree) == (1, 2, 0)
    fam = orthogonal_family(6, 3)
    assert (fam.p, fam.l, fam.degree) == (6, 6, -1)
    with pytest.raises(ValueError):
        orthogonal_family(5, 4)


@pytest.mark.parametrize("n", range(2, 11))
def test_family_twists_match_oracles(n):
    for a in range(1, n):
        fam = symplectic_family(n, a)
        assert fam.l == min_twist_lagr_oracle(n, fam.p).l
    if n >= 3:
        for a in range(1, n - 1):
            fam = orthogonal_family(n, a)
            assert fam.l == min_twist_spinor_oracle(n, fam.p).l


def test_degree_shift_invariant():
    for fam in [symplectic_family(6, 4), orthogonal_family(7, 3),
                cayley_family()] + rect_family(3, 9, 6):
        assert fam.degree == fam.l - fam.p - 1


def test_cayley_family():
    fam = cayley_family()
    assert (fam.p, fam.l, fam.degree) == (8, 8, -1)
    assert fam.kind == "cayley_lines"
    assert (fam.tf_rank, fam.tf_c1) == (8, 4)
    assert fam.minimal
    note = fam.notes[0]
    assert "4l6" in note and "4l1" in note  # both duality conventions recorded


@pytest.mark.parametrize("change,message", [
    ({"l": 9}, "expected l=8 with 1 witness, got l=9 with 1"),
    ({"h0_dim": 1}, "the dual weight 4 l1 has dimension 19305, the witness h0_dim=1"),
])
def test_a_wrong_cayley_report_raises_a_decomposition_error(monkeypatch, change,
                                                            message):
    real = foliations.min_twist
    monkeypatch.setattr(foliations, "min_twist",
                        lambda spec, p: real(spec, p)._replace(**change))
    with pytest.raises(DecompositionError, match=f"^E6, p=8: {message}$"):
        cayley_family()


def test_atlas_sorted_and_minimal():
    atlas = foliation_atlas(6)
    keys = [(r.space, r.p) for r in atlas]
    assert keys == sorted(keys)
    assert all(r.minimal for r in atlas)
    assert any(r.kind == "cayley_lines" for r in atlas)
    assert any(r.space == "IG:5" for r in atlas)
    spaces = {r.space for r in atlas}
    assert "OG:6" in spaces


def test_atlas_lists_spaces_in_numeric_order():
    # by head and then integer parameters: G:1:2 before G:1:10
    spaces = list(dict.fromkeys(r.space for r in foliation_atlas(10)))
    assert spaces.index("G:1:2") < spaces.index("G:1:10")
    assert spaces.index("IG:2") < spaces.index("IG:10")
    assert spaces.index("G:2:9") < spaces.index("G:2:10") < spaces.index("G:3:6")
    # up to rank 8 every parameter has one digit: the order is the string order
    names = [r.space for r in foliation_atlas(8)]
    assert names == sorted(names)
    # the whole row order: by head, integer parameters, p, widest rectangle first
    def key(row):
        head, *params = row.space.split(":")
        return head, tuple(map(int, params)), row.p, -row.params.get("d", 0)

    rows = foliation_atlas(12)
    assert rows == sorted(rows, key=key)


def test_the_atlas_agrees_with_the_catalog():
    # each family's dim X and c1(X) formulas against the values built from
    # the root system
    atlas = foliation_atlas(8)
    assert len(atlas) == 208
    assert {r.kind for r in atlas} == {"rect_flag", "araujo_druel",
                                       "symplectic_projection",
                                       "orthogonal_projection", "cayley_lines"}
    for row in atlas:
        spec = parse_space(row.space)
        assert row.tf_rank == spec.dim - row.p, row
        assert row.tf_c1 == spec.index_c1 - row.l, row
        assert row.degree == row.l - row.p - 1, row


def test_atlas_refuses_a_rank_below_two():
    with pytest.raises(ValueError, match="^need max_rank >= 2$"):
        foliation_atlas(1)

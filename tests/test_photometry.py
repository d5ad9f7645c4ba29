"""Photometric profiles and the LM-63 style parser."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan.photometry import (
    COSINE_LOBE,
    IES_TABLE,
    ISOTROPIC,
    IESParseError,
    PhotometricProfile,
    parse_ies,
)

# Minimal valid file: 2 vertical x 2 horizontal angles, one vertical sweep
# per horizontal angle, multiplier 2.
IES_TEXT = """\
IESNA:LM-63-2002
[TEST] synthetic fixture
TILT=NONE
1 1000 2 2 2 1 2 0.1 0.1 0.1
1.0 0 100
0 90
0 180
500 300
400 200
"""


def test_parse_ies_basic():
    prof = parse_ies(IES_TEXT, source="fixture")
    assert prof.kind == IES_TABLE
    assert prof.vertical_angles == (0.0, 90.0)
    assert prof.horizontal_angles == (0.0, 180.0)
    # table[v][h], multiplier applied
    assert prof.candela == ((1000.0, 800.0), (600.0, 400.0))
    assert prof.peak == 1000.0
    assert prof.source == "fixture"


def test_lookup_exact_at_nodes_and_midpoint():
    prof = parse_ies(IES_TEXT)
    assert prof.lookup(0, 0) == 1000.0
    assert prof.lookup(90, 180) == 400.0
    # bilinear centre: mean of the four corners
    assert prof.lookup(45, 90) == pytest.approx((1000 + 800 + 600 + 400) / 4)


def test_lookup_clamps_outside_grid():
    prof = parse_ies(IES_TEXT)
    assert prof.lookup(120, 0) == prof.lookup(90, 0)
    assert prof.lookup(0, 350) == prof.lookup(0, 180)


def test_relative_intensity_normalizes_by_peak():
    prof = parse_ies(IES_TEXT)
    assert prof.relative_intensity(0, 0) == 1.0
    assert prof.relative_intensity(90, 180) == pytest.approx(0.4)


def test_isotropic_and_cosine_profiles():
    iso = PhotometricProfile(kind=ISOTROPIC)
    cos = PhotometricProfile(kind=COSINE_LOBE)
    assert iso.relative_intensity(0, 0) == 1.0
    assert iso.relative_intensity(173, 211) == 1.0
    assert cos.relative_intensity(0, 0) == pytest.approx(1.0)
    assert cos.relative_intensity(60, 0) == pytest.approx(0.5)
    assert cos.relative_intensity(90, 0) == pytest.approx(0.0)
    assert cos.relative_intensity(135, 0) == 0.0  # nothing above the horizon
    assert iso.peak == 1.0 and cos.peak == 1.0


def test_relative_intensity_accepts_arrays():
    import numpy as np

    cos = PhotometricProfile(kind=COSINE_LOBE)
    out = cos.relative_intensity(np.array([0.0, 60.0, 90.0]), np.zeros(3))
    assert out == pytest.approx([1.0, 0.5, 0.0])


def test_missing_tilt_rejected():
    with pytest.raises(IESParseError, match="TILT"):
        parse_ies("just numbers\n1 2 3\n")


def test_unsupported_tilt_mode_rejected():
    with pytest.raises(IESParseError, match="unsupported TILT"):
        parse_ies(IES_TEXT.replace("TILT=NONE", "TILT=INCLUDE"))


def test_truncated_table_rejected():
    lines = IES_TEXT.strip().splitlines()
    with pytest.raises(IESParseError, match="truncated"):
        parse_ies("\n".join(lines[:-1]))


def test_non_numeric_token_rejected():
    with pytest.raises(IESParseError, match="non-numeric"):
        parse_ies(IES_TEXT + "\nbogus")


def test_angle_range_validation():
    bad = IES_TEXT.replace("0 90", "0 190")  # vertical angles out of range
    with pytest.raises(IESParseError, match="vertical"):
        parse_ies(bad)


def test_table_shape_validation():
    with pytest.raises(IESParseError):
        PhotometricProfile(
            kind=IES_TABLE,
            vertical_angles=(0.0, 90.0),
            horizontal_angles=(0.0,),
            candela=((1.0,),),  # one row for two vertical angles
        )


def test_decreasing_angles_rejected():
    with pytest.raises(IESParseError, match="increasing"):
        PhotometricProfile(
            kind=IES_TABLE,
            vertical_angles=(90.0, 0.0),
            horizontal_angles=(0.0,),
            candela=((1.0,), (2.0,)),
        )


def test_negative_candela_rejected():
    with pytest.raises(IESParseError, match="negative"):
        PhotometricProfile(
            kind=IES_TABLE,
            vertical_angles=(0.0,),
            horizontal_angles=(0.0,),
            candela=((-1.0,),),
        )


def test_unknown_profile_kind_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        PhotometricProfile(kind="laser")


def test_lookup_requires_table():
    with pytest.raises(ValueError):
        PhotometricProfile(kind=ISOTROPIC).lookup(0, 0)


def written_out_lookup(prof, vertical_deg, horizontal_deg):
    """lookup's bilinear formula with each axis's one-node case spelled out."""
    v = np.clip(np.asarray(vertical_deg, dtype=float), prof.vertical_angles[0], prof.vertical_angles[-1])
    h = np.clip(np.asarray(horizontal_deg, dtype=float), prof.horizontal_angles[0], prof.horizontal_angles[-1])
    vgrid, hgrid = np.asarray(prof.vertical_angles), np.asarray(prof.horizontal_angles)
    table = np.asarray(prof.candela)
    if len(vgrid) > 1:
        vi = np.clip(np.searchsorted(vgrid, v, side="right") - 1, 0, len(vgrid) - 2)
        tv, vi1 = (v - vgrid[vi]) / (vgrid[vi + 1] - vgrid[vi]), vi + 1
    else:
        vi = vi1 = np.zeros_like(v, dtype=int)
        tv = np.zeros_like(v)
    if len(hgrid) > 1:
        hi = np.clip(np.searchsorted(hgrid, h, side="right") - 1, 0, len(hgrid) - 2)
        th, hi1 = (h - hgrid[hi]) / (hgrid[hi + 1] - hgrid[hi]), hi + 1
    else:
        hi = hi1 = np.zeros_like(h, dtype=int)
        th = np.zeros_like(h)
    return ((1 - tv) * ((1 - th) * table[vi, hi] + th * table[vi, hi1])
            + tv * ((1 - th) * table[vi1, hi] + th * table[vi1, hi1]))


def angle_grid(top):
    return st.lists(st.floats(0, top), min_size=1, max_size=4, unique=True).map(sorted)


@st.composite
def table_profiles(draw):
    """Tables of 1 to 4 nodes per axis, so 1 x k, k x 1 and 1 x 1 among them."""
    vertical, horizontal = draw(angle_grid(180)), draw(angle_grid(360))
    rows = st.lists(st.floats(0, 1e4), min_size=len(horizontal), max_size=len(horizontal))
    candela = draw(st.lists(rows, min_size=len(vertical), max_size=len(vertical)))
    return PhotometricProfile(IES_TABLE, tuple(vertical), tuple(horizontal),
                              tuple(map(tuple, candela)))


@given(prof=table_profiles(),
       v=st.lists(st.floats(-20, 200), min_size=1, max_size=5),
       h=st.lists(st.floats(-20, 380), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_lookup_equals_the_written_out_formula(prof, v, h):
    n = min(len(v), len(h))
    want = written_out_lookup(prof, v[:n], h[:n])
    assert prof.lookup(np.array(v[:n]), np.array(h[:n])).tobytes() == want.tobytes()
    assert prof.lookup(v[0], h[0]) == float(written_out_lookup(prof, v[0], h[0]))


def test_single_horizontal_angle_interpolates_vertically():
    # a rotationally symmetric file: one vertical sweep at horizontal angle 0
    prof = parse_ies("TILT=NONE\n1 1000 1 3 1 1 2 0.1 0.1 0.1\n1.0 0 100\n0 45 90\n0\n"
                     "900 500 100\n")
    assert prof.horizontal_angles == (0.0,)
    assert prof.lookup(22.5, 0) == 700.0
    assert prof.lookup(67.5, 270) == 300.0

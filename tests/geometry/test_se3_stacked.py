"""Stacked se(3) maps against the scalar code they replaced.

:func:`~repro.geometry.se3.exp`, ``log``, ``invert``, ``adjoint``,
``left_jacobian``, ``left_jacobian_inv`` and ``orthonormalize_rotation``
take a leading stack axis and compute a single item as a stack of one.
The oracle is the per-item code below, kept as it was before stacking:
one transform or twist at a time, Python-float angles, ``**`` powers and
``np.linalg.norm``.  Every comparison is exact down to the sign of zero:
the pose-graph digests rest on these maps, so no tolerance is accepted.
The inputs sit on every branch boundary: zero rotation, the series
threshold and one ulp either side of it, the near-pi axis-angle branch,
pi itself, 1e6 m translations and reflections for the SVD projection.
"""

import numpy as np
import pytest

from repro.geometry import se3

SMALL_ANGLE = se3._SMALL_ANGLE


# ----------------------------------------------------------------------
# The scalar oracle.
# ----------------------------------------------------------------------


def scalar_skew(vector):
    v = np.asarray(vector, dtype=np.float64).reshape(3)
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]],
        dtype=np.float64,
    )


def scalar_invert(transform):
    transform = np.asarray(transform, dtype=np.float64)
    rotation = transform[:3, :3].copy()
    translation = transform[:3, 3].copy()
    return se3.make_transform(rotation.T, -rotation.T @ translation)


def scalar_orthonormalize_rotation(rotation):
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=np.float64))
    rotation_clean = u @ vt
    if np.linalg.det(rotation_clean) < 0:
        u[:, -1] = -u[:, -1]
        rotation_clean = u @ vt
    return rotation_clean


def scalar_so3_left_jacobian(phi):
    theta = float(np.linalg.norm(phi))
    k = scalar_skew(phi)
    if theta < SMALL_ANGLE:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * k + b * (k @ k)


def scalar_so3_left_jacobian_inv(phi):
    theta = float(np.linalg.norm(phi))
    k = scalar_skew(phi)
    if theta < SMALL_ANGLE:
        return np.eye(3) - 0.5 * k + (k @ k) / 12.0
    coefficient = (1.0 - 0.5 * theta / np.tan(0.5 * theta)) / theta**2
    return np.eye(3) - 0.5 * k + coefficient * (k @ k)


def scalar_exp(twist):
    twist = np.asarray(twist, dtype=np.float64).reshape(6)
    rho, phi = twist[:3], twist[3:]
    theta = float(np.linalg.norm(phi))
    k = scalar_skew(phi)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
    rotation = np.eye(3) + a * k + b * (k @ k)
    return se3.make_transform(rotation, scalar_so3_left_jacobian(phi) @ rho)


def log_branch(transform):
    """Which of the three ``log`` branches the scalar code takes."""
    rotation = np.asarray(transform, dtype=np.float64)[:3, :3]
    sin_axis = 0.5 * np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    sine = float(np.linalg.norm(sin_axis))
    cosine = float(np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0))
    theta = float(np.arctan2(sine, cosine))
    if theta < SMALL_ANGLE:
        return "series", sin_axis, theta, sine
    if sine > 1e-8:
        return "regular", sin_axis, theta, sine
    return "axis_angle", sin_axis, theta, sine


def scalar_log(transform):
    transform = np.asarray(transform, dtype=np.float64)
    rotation = transform[:3, :3]
    branch, sin_axis, theta, sine = log_branch(transform)
    if branch == "series":
        phi = sin_axis * (1.0 + theta**2 / 6.0)
    elif branch == "regular":
        phi = sin_axis * (theta / sine)
    else:
        axis, angle = se3.rotation_to_axis_angle(rotation)
        phi = axis * angle
    rho = scalar_so3_left_jacobian_inv(phi) @ transform[:3, 3]
    return np.concatenate([rho, phi])


def scalar_adjoint(transform):
    transform = np.asarray(transform, dtype=np.float64)
    rotation = transform[:3, :3]
    result = np.zeros((6, 6), dtype=np.float64)
    result[:3, :3] = rotation
    result[3:, 3:] = rotation
    result[:3, 3:] = scalar_skew(transform[:3, 3]) @ rotation
    return result


def scalar_q_matrix(rho, phi):
    rx = scalar_skew(rho)
    px = scalar_skew(phi)
    theta = float(np.linalg.norm(phi))
    if theta < SMALL_ANGLE:
        c1 = 1.0 / 6.0 - theta**2 / 120.0
        c2 = 1.0 / 24.0 - theta**2 / 720.0
        c3 = -0.5 * (1.0 / 24.0 + 3.0 / 120.0)
    else:
        c1 = (theta - np.sin(theta)) / theta**3
        c2 = (1.0 - theta**2 / 2.0 - np.cos(theta)) / theta**4
        c3 = -0.5 * (
            c2 - 3.0 * (theta - np.sin(theta) - theta**3 / 6.0) / theta**5
        )
    px_rx = px @ rx
    rx_px = rx @ px
    px_rx_px = px_rx @ px
    return (
        0.5 * rx
        + c1 * (px_rx + rx_px + px_rx_px)
        - c2 * (px @ px_rx + rx_px @ px - 3.0 * px_rx_px)
        + c3 * (px_rx_px @ px + px @ px_rx_px)
    )


def scalar_left_jacobian(twist):
    twist = np.asarray(twist, dtype=np.float64).reshape(6)
    rho, phi = twist[:3], twist[3:]
    j = scalar_so3_left_jacobian(phi)
    result = np.zeros((6, 6), dtype=np.float64)
    result[:3, :3] = j
    result[3:, 3:] = j
    result[:3, 3:] = scalar_q_matrix(rho, phi)
    return result


def scalar_left_jacobian_inv(twist):
    twist = np.asarray(twist, dtype=np.float64).reshape(6)
    rho, phi = twist[:3], twist[3:]
    j_inv = scalar_so3_left_jacobian_inv(phi)
    result = np.zeros((6, 6), dtype=np.float64)
    result[:3, :3] = j_inv
    result[3:, 3:] = j_inv
    result[:3, 3:] = -j_inv @ scalar_q_matrix(rho, phi) @ j_inv
    return result


# ----------------------------------------------------------------------
# Inputs on the branch boundaries.
# ----------------------------------------------------------------------

# Rotation angles: zero, the series threshold and its neighbouring
# ulps, ordinary angles, and the last steps below pi.
ANGLES = [
    0.0,
    1e-12,
    np.nextafter(SMALL_ANGLE, 0.0),
    SMALL_ANGLE,
    np.nextafter(SMALL_ANGLE, 1.0),
    1e-3,
    0.7,
    2.9,
    np.pi - 1e-6,
    np.pi - 1e-9,
    np.pi,
]
TRANSLATION_SCALES = [0.0, 1.0, 1e6]


def boundary_twists() -> np.ndarray:
    """Twists at every angle, on the x axis (where ``|phi|`` is the
    angle exactly, so the ulp neighbours straddle the threshold) and on
    a skew axis, at every translation scale."""
    rng = np.random.default_rng(11)
    skew_axis = np.array([0.48, -0.6, 0.64])
    twists = []
    for angle in ANGLES:
        for axis in (np.array([1.0, 0.0, 0.0]), skew_axis):
            for scale in TRANSLATION_SCALES:
                rho = rng.uniform(-1.0, 1.0, 3) * scale
                twists.append(np.concatenate([rho, axis * angle]))
    return np.array(twists)


def random_twists(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = rng.uniform(0.0, np.pi, n) * 10.0 ** -rng.integers(0, 8, n)
    rho = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 6, (n, 1))
    return np.column_stack([rho, axes * angles[:, None]])


def boundary_transforms() -> np.ndarray:
    """Transforms on every ``log`` branch: exp of the boundary twists,
    x-axis rotations a few ulps either side of the series threshold
    (the atan2 angle lands within an ulp of the construction angle),
    and rotations at and within 1e-8 of pi, where ``log`` takes the
    axis-angle decomposition."""
    transforms = [scalar_exp(twist) for twist in boundary_twists()]
    angle = SMALL_ANGLE
    for _ in range(4):
        angle = np.nextafter(angle, 0.0)
    for _ in range(9):
        transforms.append(se3.make_transform(se3.rot_x(angle), [1e6, -2.0, 3.0]))
        angle = np.nextafter(angle, 1.0)
    rng = np.random.default_rng(12)
    for angle in (np.pi, np.pi - 1e-9, np.pi - 5e-9):
        for _ in range(4):
            axis = rng.normal(size=3)
            rotation = se3.axis_angle_to_rotation(axis, angle)
            transforms.append(
                se3.make_transform(rotation, rng.normal(size=3) * 1e6)
            )
    return np.array(transforms)


def random_transforms(n: int, seed: int) -> np.ndarray:
    """Products of random rigid motions, so rotations carry rounding."""
    twists = random_twists(3 * n, seed)
    return np.array(
        [
            scalar_exp(twists[3 * k])
            @ scalar_exp(twists[3 * k + 1])
            @ scalar_invert(scalar_exp(twists[3 * k + 2]))
            for k in range(n)
        ]
    )


def assert_bits_equal(actual, expected):
    """Exact equality, down to the sign of zero and NaN payloads."""
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# ----------------------------------------------------------------------
# Tests.
# ----------------------------------------------------------------------

TWIST_MAPS = [
    (se3.exp, scalar_exp),
    (se3.left_jacobian, scalar_left_jacobian),
    (se3.left_jacobian_inv, scalar_left_jacobian_inv),
]
TRANSFORM_MAPS = [
    (se3.log, scalar_log),
    (se3.invert, scalar_invert),
    (se3.adjoint, scalar_adjoint),
]


def map_name(maps) -> str:
    return maps[0].__name__


class TestStackedMatchesScalar:
    @pytest.mark.parametrize("maps", TWIST_MAPS, ids=map_name)
    def test_twist_maps(self, maps):
        stacked, scalar = maps
        twists = np.concatenate([boundary_twists(), random_twists(300, seed=1)])
        result = stacked(twists)
        for twist, got in zip(twists, result):
            assert_bits_equal(got, scalar(twist))
            assert_bits_equal(stacked(twist), got)

    @pytest.mark.parametrize("maps", TRANSFORM_MAPS, ids=map_name)
    def test_transform_maps(self, maps):
        stacked, scalar = maps
        transforms = np.concatenate(
            [boundary_transforms(), random_transforms(300, seed=2)]
        )
        result = stacked(transforms)
        for transform, got in zip(transforms, result):
            assert_bits_equal(got, scalar(transform))
            assert_bits_equal(stacked(transform), got)

    def test_log_inputs_cover_every_branch(self):
        """Both sides of the series threshold and the near-pi branch."""
        branches = [log_branch(t) for t in boundary_transforms()]
        names = {branch[0] for branch in branches}
        assert names == {"series", "regular", "axis_angle"}
        thetas = [theta for _, _, theta, _ in branches]
        assert SMALL_ANGLE in thetas
        assert np.nextafter(SMALL_ANGLE, 0.0) in thetas
        assert np.nextafter(SMALL_ANGLE, 1.0) in thetas

    def test_orthonormalize_rotation(self):
        """Drifted rotations, strided 3x3 views of 4x4 transforms, and
        reflections (``u @ vt`` with det -1, the sign-flip branch)."""
        rng = np.random.default_rng(3)
        transforms = random_transforms(200, seed=4)
        drifted = transforms[:, :3, :3] + rng.normal(scale=1e-6, size=(200, 3, 3))
        drifted[::4] = -drifted[::4]
        transforms[:, :3, :3] = drifted
        reflected = [
            np.linalg.det(np.linalg.svd(r)[0] @ np.linalg.svd(r)[2]) < 0
            for r in drifted
        ]
        assert any(reflected) and not all(reflected)
        for rotations in (drifted, transforms[:, :3, :3]):
            result = se3.orthonormalize_rotation(rotations)
            for rotation, got in zip(rotations, result):
                assert_bits_equal(got, scalar_orthonormalize_rotation(rotation))
                assert_bits_equal(se3.orthonormalize_rotation(rotation), got)

    def test_skew_stack(self, rng):
        vectors = rng.normal(size=(20, 3)) * 1e6
        for vector, got in zip(vectors, se3.skew(vectors)):
            assert_bits_equal(got, scalar_skew(vector))

    def test_compose_stack(self, rng):
        a = random_transforms(20, seed=5)
        b = random_transforms(20, seed=6)
        for x, y, got in zip(a, b, se3.compose(a, b)):
            assert_bits_equal(got, x @ y)

    def test_single_items_keep_their_shapes(self):
        assert se3.exp(np.zeros(6)).shape == (4, 4)
        assert se3.log(np.eye(4)).shape == (6,)
        assert se3.invert(np.eye(4)).shape == (4, 4)
        assert se3.adjoint(np.eye(4)).shape == (6, 6)
        assert se3.left_jacobian_inv(np.zeros(6)).shape == (6, 6)
        assert se3.orthonormalize_rotation(np.eye(3)).shape == (3, 3)
        assert se3.exp(np.zeros((1, 6))).shape == (1, 4, 4)
        assert se3.log(np.zeros((0, 4, 4))).shape == (0, 6)

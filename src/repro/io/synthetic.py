"""Synthetic LiDAR data: procedurally generated scenes scanned by a
ray-cast spinning-LiDAR model.

The paper evaluates on the KITTI Odometry dataset, captured with a
Velodyne HDL-64E.  That data is not redistributable here, so this module
provides the substitution documented in ``tests/paper/README.md``:
parametric urban scenes (ground plane, box buildings, cylindrical
poles, spherical shrubs) scanned by a 64-beam spinning LiDAR model with
Gaussian range noise and beam dropout.  The output has the same structure the pipeline
consumes — per-frame ``(x, y, z)`` clouds with LiDAR ring/azimuth
channels (which double as a range image for the NARF-style detector) —
and exact ground-truth sensor poses for KITTI-style error metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import se3
from repro.io.pointcloud import PointCloud

__all__ = [
    "Plane",
    "Box",
    "Cylinder",
    "Sphere",
    "Scene",
    "LidarModel",
    "scan",
    "urban_scene",
    "highway_scene",
    "intersection_scene",
    "room_scene",
    "corridor_scene",
    "straight_trajectory",
    "curved_trajectory",
    "loop_trajectory",
    "figure_eight_trajectory",
]


# ---------------------------------------------------------------------------
# Scene primitives.  Each primitive answers ray queries in batch: given ray
# origins O (N, 3) and unit directions D (N, 3), return the hit parameter t
# per ray (np.inf where the ray misses).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plane:
    """Infinite horizontal plane at height ``z`` (the ground)."""

    z: float = 0.0

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        t = np.full(len(origins), np.inf)
        dz = directions[:, 2]
        moving = np.abs(dz) > 1e-12
        t_hit = np.where(moving, (self.z - origins[:, 2]) / np.where(moving, dz, 1.0), np.inf)
        t = np.where(t_hit > 1e-6, t_hit, np.inf)
        return t


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, e.g. a building or vehicle."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        # Slab method, vectorized over rays; divisions by ~0 produce +-inf
        # which the min/max logic handles correctly.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / directions
            t1 = (lo - origins) * inv
            t2 = (hi - origins) * inv
        tmin = np.nanmax(np.minimum(t1, t2), axis=1)
        tmax = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (tmax >= tmin) & (tmax > 1e-6)
        t_entry = np.where(tmin > 1e-6, tmin, tmax)
        return np.where(hit & (t_entry > 1e-6), t_entry, np.inf)


@dataclass(frozen=True)
class RotatedBox:
    """A box rotated by ``yaw`` about the vertical axis (e.g. a parked car).

    Rays are transformed into the box frame and intersected with the
    axis-aligned slab there.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        c, s = np.cos(-self.yaw), np.sin(-self.yaw)
        center = np.asarray(self.center, dtype=np.float64)
        local_o = origins - center
        local_o = np.column_stack(
            [
                c * local_o[:, 0] - s * local_o[:, 1],
                s * local_o[:, 0] + c * local_o[:, 1],
                local_o[:, 2],
            ]
        )
        local_d = np.column_stack(
            [
                c * directions[:, 0] - s * directions[:, 1],
                s * directions[:, 0] + c * directions[:, 1],
                directions[:, 2],
            ]
        )
        half = np.asarray(self.size, dtype=np.float64) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / local_d
            t1 = (-half - local_o) * inv
            t2 = (half - local_o) * inv
        tmin = np.nanmax(np.minimum(t1, t2), axis=1)
        tmax = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (tmax >= tmin) & (tmax > 1e-6)
        t_entry = np.where(tmin > 1e-6, tmin, tmax)
        return np.where(hit & (t_entry > 1e-6), t_entry, np.inf)


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder (pole, trunk) from ``z_lo`` to ``z_hi``."""

    center: tuple[float, float]
    radius: float
    z_lo: float
    z_hi: float

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        ox = origins[:, 0] - self.center[0]
        oy = origins[:, 1] - self.center[1]
        dx, dy = directions[:, 0], directions[:, 1]
        a = dx * dx + dy * dy
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - self.radius**2
        disc = b * b - 4.0 * a * c
        valid = (disc >= 0.0) & (a > 1e-12)
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_near = (-b - sqrt_disc) / (2.0 * a)
            t_far = (-b + sqrt_disc) / (2.0 * a)
        t = np.where(t_near > 1e-6, t_near, t_far)
        z = origins[:, 2] + t * directions[:, 2]
        ok = valid & (t > 1e-6) & (z >= self.z_lo) & (z <= self.z_hi)
        return np.where(ok, t, np.inf)


@dataclass(frozen=True)
class Sphere:
    """Sphere (shrub, boulder)."""

    center: tuple[float, float, float]
    radius: float

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        oc = origins - np.asarray(self.center, dtype=np.float64)
        b = 2.0 * np.sum(oc * directions, axis=1)
        c = np.sum(oc * oc, axis=1) - self.radius**2
        disc = b * b - 4.0 * c
        valid = disc >= 0.0
        sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
        t_near = (-b - sqrt_disc) / 2.0
        t_far = (-b + sqrt_disc) / 2.0
        t = np.where(t_near > 1e-6, t_near, t_far)
        return np.where(valid & (t > 1e-6), t, np.inf)


@dataclass
class Scene:
    """A static world: the union of primitives, queried by ray casting."""

    primitives: list = field(default_factory=list)

    def add(self, primitive) -> None:
        self.primitives.append(primitive)

    def intersect(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Nearest hit parameter per ray over all primitives."""
        t = np.full(len(origins), np.inf)
        for primitive in self.primitives:
            t = np.minimum(t, primitive.intersect(origins, directions))
        return t


# ---------------------------------------------------------------------------
# LiDAR sensor model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LidarModel:
    """A spinning multi-beam LiDAR.

    Defaults approximate the Velodyne HDL-64E used by KITTI: 64 vertical
    channels spanning +2 deg to -24.8 deg, 360 deg azimuth sweep, 120 m
    range, ~2 cm range noise.  ``azimuth_steps`` controls horizontal
    resolution and hence the points-per-frame budget; tests use small
    values, the examples use larger ones.
    """

    channels: int = 64
    vertical_fov_deg: tuple[float, float] = (-24.8, 2.0)
    azimuth_steps: int = 870
    max_range: float = 120.0
    min_range: float = 0.9
    range_noise_std: float = 0.02
    dropout_rate: float = 0.005

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the sensor frame, shape (C*A, 3).

        Rays are ordered ring-major: index ``ring * azimuth_steps + step``,
        which lets the scan double as an organized range image.
        """
        elevations = np.radians(
            np.linspace(
                self.vertical_fov_deg[0], self.vertical_fov_deg[1], self.channels
            )
        )
        azimuths = np.linspace(0.0, 2.0 * np.pi, self.azimuth_steps, endpoint=False)
        el_grid, az_grid = np.meshgrid(elevations, azimuths, indexing="ij")
        cos_el = np.cos(el_grid)
        directions = np.stack(
            [
                cos_el * np.cos(az_grid),
                cos_el * np.sin(az_grid),
                np.sin(el_grid),
            ],
            axis=-1,
        )
        return directions.reshape(-1, 3)


def scan(
    scene: Scene,
    sensor_pose: np.ndarray,
    model: LidarModel,
    rng: np.random.Generator,
) -> PointCloud:
    """Scan ``scene`` from ``sensor_pose`` (sensor->world 4x4 transform).

    Returns the point cloud **in the sensor frame** (as a real LiDAR
    would), with ``ring``, ``azimuth`` and ``range`` attributes.  Rays
    that miss, exceed range limits, or are dropped by the dropout model
    produce no point.
    """
    directions_local = model.ray_directions()
    n_rays = len(directions_local)
    rotation = se3.rotation_part(sensor_pose)
    origin = se3.translation_part(sensor_pose)
    directions_world = directions_local @ rotation.T
    origins_world = np.broadcast_to(origin, (n_rays, 3))

    t = scene.intersect(origins_world, directions_world)
    if model.range_noise_std > 0:
        t = t + rng.normal(0.0, model.range_noise_std, size=n_rays)
    hit = np.isfinite(t) & (t >= model.min_range) & (t <= model.max_range)
    if model.dropout_rate > 0:
        hit &= rng.random(n_rays) >= model.dropout_rate

    indices = np.nonzero(hit)[0]
    points_local = directions_local[indices] * t[indices, None]
    rings = indices // model.azimuth_steps
    azimuth_idx = indices % model.azimuth_steps
    return PointCloud(
        points_local,
        ring=rings.astype(np.int32),
        azimuth=azimuth_idx.astype(np.int32),
        range=t[indices],
    )


# ---------------------------------------------------------------------------
# Procedural scenes and trajectories.
# ---------------------------------------------------------------------------


def urban_scene(
    rng: np.random.Generator,
    length: float = 200.0,
    road_width: float = 12.0,
    building_density: float = 0.05,
    pole_density: float = 0.2,
    car_density: float = 0.1,
) -> Scene:
    """A street corridor along +x: ground, buildings, cars, poles, shrubs.

    Densities are per meter of corridor.  The scene mixes large planar
    structure (ground, walls — dense radius-search workload for normal
    estimation) with abundant structure *perpendicular to the travel
    direction* (parked cars at random yaw, building end walls, poles),
    which is what makes frame-to-frame motion observable to ICP — the
    same property real KITTI streets have.
    """
    scene = Scene()
    scene.add(Plane(z=0.0))
    for side in (-1.0, 1.0):
        x = -length / 2.0
        while x < length / 2.0:
            if rng.random() < building_density * 10.0:
                width = rng.uniform(6.0, 14.0)
                depth = rng.uniform(6.0, 15.0)
                height = rng.uniform(4.0, 18.0)
                y0 = side * (road_width / 2.0 + rng.uniform(1.0, 4.0))
                y1 = y0 + side * depth
                scene.add(
                    Box(
                        (x, min(y0, y1), 0.0),
                        (x + width, max(y0, y1), height),
                    )
                )
                x += width + rng.uniform(2.0, 6.0)
            else:
                x += rng.uniform(3.0, 8.0)
    n_cars = int(car_density * length)
    for _ in range(n_cars):
        cx = rng.uniform(-length / 2.0, length / 2.0)
        cy = rng.choice([-1.0, 1.0]) * (road_width / 2.0 - rng.uniform(0.5, 1.5))
        scene.add(
            RotatedBox(
                center=(cx, cy, 0.75),
                size=(rng.uniform(3.8, 5.0), rng.uniform(1.6, 2.0), 1.5),
                yaw=rng.normal(0.0, 0.15),
            )
        )
    n_poles = int(pole_density * length)
    for _ in range(n_poles):
        px = rng.uniform(-length / 2.0, length / 2.0)
        py = rng.choice([-1.0, 1.0]) * (road_width / 2.0 + rng.uniform(0.2, 1.5))
        scene.add(
            Cylinder(
                (px, py), rng.uniform(0.1, 0.3), 0.0, rng.uniform(3.0, 8.0)
            )
        )
    for _ in range(n_poles // 2):
        sx = rng.uniform(-length / 2.0, length / 2.0)
        sy = rng.choice([-1.0, 1.0]) * (road_width / 2.0 + rng.uniform(1.0, 3.0))
        radius = rng.uniform(0.4, 1.2)
        scene.add(Sphere((sx, sy, radius), radius))
    return scene


def highway_scene(
    rng: np.random.Generator,
    length: float = 300.0,
    lanes: int = 3,
) -> Scene:
    """A highway segment: wide road, guard rails, gantries, sparse cars.

    Deliberately *feature-poor* along the travel direction — the
    degenerate case where frame-to-frame registration must rely on the
    few perpendicular structures (gantries, rail posts).  Useful for
    stress-testing registration observability.
    """
    scene = Scene()
    scene.add(Plane(z=0.0))
    road_half = lanes * 3.7 / 2.0 + 1.0
    # Guard rails: long, thin boxes on both sides.
    scene.add(Box((-length / 2, -road_half - 0.3, 0.4), (length / 2, -road_half, 0.8)))
    scene.add(Box((-length / 2, road_half, 0.4), (length / 2, road_half + 0.3, 0.8)))
    # Rail posts every ~8 m.
    x = -length / 2.0
    while x < length / 2.0:
        for side in (-1.0, 1.0):
            scene.add(
                Cylinder((x, side * (road_half + 0.15)), 0.08, 0.0, 0.8)
            )
        x += 8.0
    # Overhead gantries every ~80 m: two posts + a beam.
    x = -length / 2.0 + rng.uniform(0.0, 40.0)
    while x < length / 2.0:
        scene.add(Cylinder((x, -road_half - 1.0), 0.25, 0.0, 6.0))
        scene.add(Cylinder((x, road_half + 1.0), 0.25, 0.0, 6.0))
        scene.add(
            Box((x - 0.4, -road_half - 1.2, 5.4), (x + 0.4, road_half + 1.2, 6.0))
        )
        x += rng.uniform(60.0, 100.0)
    # Sparse moving-lane cars (static within a frame).
    for _ in range(int(length / 40.0)):
        cx = rng.uniform(-length / 2.0, length / 2.0)
        lane = rng.integers(0, lanes)
        cy = (lane - (lanes - 1) / 2.0) * 3.7
        scene.add(
            RotatedBox(
                center=(cx, cy, 0.75),
                size=(rng.uniform(4.0, 5.0), 1.8, 1.5),
                yaw=rng.normal(0.0, 0.02),
            )
        )
    return scene


def intersection_scene(
    rng: np.random.Generator,
    arm_length: float = 80.0,
    road_width: float = 12.0,
) -> Scene:
    """A four-way urban intersection: corner buildings and poles.

    Rich in perpendicular structure in *both* horizontal directions —
    the favourable case for registration, complementing
    :func:`highway_scene`.
    """
    scene = Scene()
    scene.add(Plane(z=0.0))
    half = road_width / 2.0
    # Four corner blocks.
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            x0 = sx * (half + 2.0)
            y0 = sy * (half + 2.0)
            x1 = sx * (half + 2.0 + rng.uniform(15.0, 30.0))
            y1 = sy * (half + 2.0 + rng.uniform(15.0, 30.0))
            scene.add(
                Box(
                    (min(x0, x1), min(y0, y1), 0.0),
                    (max(x0, x1), max(y0, y1), rng.uniform(6.0, 20.0)),
                )
            )
    # Traffic poles near the corners and along the arms.
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            scene.add(
                Cylinder((sx * (half + 0.8), sy * (half + 0.8)), 0.15, 0.0, 5.0)
            )
    for _ in range(int(arm_length / 10.0)):
        along = rng.uniform(half + 2.0, arm_length)
        side = rng.choice([-1.0, 1.0]) * (half + rng.uniform(0.3, 1.0))
        if rng.random() < 0.5:
            scene.add(Cylinder((along * rng.choice([-1, 1]), side), 0.1, 0.0, 4.0))
        else:
            scene.add(Cylinder((side, along * rng.choice([-1, 1])), 0.1, 0.0, 4.0))
    return scene


def room_scene(size: float = 10.0, height: float = 3.0) -> Scene:
    """A closed rectangular room — a compact indoor scan target.

    Useful for AR/reconstruction-style examples where the sensor is
    surrounded by geometry in all directions.
    """
    scene = Scene()
    half = size / 2.0
    thickness = 0.2
    scene.add(Plane(z=0.0))
    scene.add(Box((-half - thickness, -half, 0.0), (-half, half, height)))
    scene.add(Box((half, -half, 0.0), (half + thickness, half, height)))
    scene.add(Box((-half, -half - thickness, 0.0), (half, -half, height)))
    scene.add(Box((-half, half, 0.0), (half, half + thickness, height)))
    scene.add(Box((-1.0, -0.6, 0.0), (1.0, 0.6, 0.8)))  # a table
    scene.add(Cylinder((half * 0.6, -half * 0.6), 0.15, 0.0, height))
    scene.add(Sphere((-half * 0.5, half * 0.5, 0.5), 0.5))
    return scene


def corridor_scene(
    length: float = 400.0,
    width: float = 8.0,
    height: float = 6.0,
) -> Scene:
    """A featureless straight corridor: ground plus two parallel walls.

    Deliberately degenerate for registration along the travel direction:
    every surface normal is either vertical (the ground) or perpendicular
    to the corridor axis (the walls), so the point-to-plane
    normal-equations Hessian's translation block is rank 2 and motion
    along the corridor is unobservable — the canonical failure mode the
    LOAM-style degeneracy detector in
    :func:`repro.registration.health.translation_observability` exists
    to flag.  Unlike :func:`highway_scene` (feature-poor but still
    weakly observable through rail posts and gantries), this scene has
    *no* perpendicular structure at all.  The default length keeps the
    corridor's end caps (the only x-facing surfaces) beyond every
    sensor model's maximum range for trajectories near the origin, so
    not a single return carries travel-direction information.
    """
    scene = Scene()
    scene.add(Plane(z=0.0))
    half = width / 2.0
    scene.add(Box((-length / 2.0, -half - 0.5, 0.0), (length / 2.0, -half, height)))
    scene.add(Box((-length / 2.0, half, 0.0), (length / 2.0, half + 0.5, height)))
    return scene


def straight_trajectory(
    n_frames: int,
    step: float = 1.0,
    height: float = 1.8,
    start_x: float = 0.0,
) -> list[np.ndarray]:
    """Sensor poses driving straight along +x at LiDAR mount height."""
    return [
        se3.make_transform(np.eye(3), [start_x + i * step, 0.0, height])
        for i in range(n_frames)
    ]


def curved_trajectory(
    n_frames: int,
    step: float = 1.0,
    yaw_rate: float = 0.01,
    height: float = 1.8,
) -> list[np.ndarray]:
    """Sensor poses on a constant-curvature arc (yaw_rate rad per frame)."""
    poses = []
    position = np.array([0.0, 0.0, height])
    yaw = 0.0
    for _ in range(n_frames):
        poses.append(se3.make_transform(se3.rot_z(yaw), position.copy()))
        position = position + step * np.array([np.cos(yaw), np.sin(yaw), 0.0])
        yaw += yaw_rate
    return poses


def loop_trajectory(
    n_frames: int,
    radius: float = 5.0,
    height: float = 1.8,
    laps: int = 1,
) -> list[np.ndarray]:
    """Sensor poses on a closed counter-clockwise circuit.

    The sensor drives ``laps`` times around a circle of the given
    radius with its heading tangent to the path, placed one step short
    of closing: frame ``n_frames`` would coincide with frame 0 again,
    so the last frame revisits the start at ordinary frame-to-frame
    distance.  This is the canonical loop-closure workload — open-loop
    odometry accumulates drift around the circuit that a SLAM back end
    corrects once revisits are detected; extra laps revisit *every*
    point of the circuit, constraining the whole trajectory rather
    than just its endpoints.
    """
    if n_frames < 2:
        raise ValueError("a loop needs at least two frames")
    if laps < 1:
        raise ValueError("laps must be >= 1")
    poses = []
    for index in range(n_frames):
        angle = 2.0 * np.pi * laps * index / n_frames
        position = [radius * np.cos(angle), radius * np.sin(angle), height]
        poses.append(se3.make_transform(se3.rot_z(angle + np.pi / 2.0), position))
    return poses


def figure_eight_trajectory(
    n_frames: int,
    radius: float = 5.0,
    height: float = 1.8,
) -> list[np.ndarray]:
    """Sensor poses on a figure-eight (Gerono lemniscate) through the origin.

    ``x = 2r sin(t), y = 2r sin(t) cos(t)``, heading along the velocity.
    The path self-intersects at the origin mid-run and closes after the
    last frame — two revisit events per lap, exercising loop closure
    against both same-direction and crossing-direction geometry.
    """
    if n_frames < 2:
        raise ValueError("a figure eight needs at least two frames")
    poses = []
    for index in range(n_frames):
        t = 2.0 * np.pi * index / n_frames
        position = [
            2.0 * radius * np.sin(t),
            2.0 * radius * np.sin(t) * np.cos(t),
            height,
        ]
        yaw = np.arctan2(2.0 * radius * np.cos(2.0 * t), 2.0 * radius * np.cos(t))
        poses.append(se3.make_transform(se3.rot_z(yaw), position))
    return poses

"""Boundary-value solves: geodesic arcs between given points.

Checks the solver against closed forms (great circles, unrolled
cylinders, flat triangles) and shows the winding search and the
cut-locus ambiguity flag.
"""

import math

import numpy as np

from geofermat import ConnectOptions, SurfacePoint, connect_geodesic, \
    make_surface


def main():
    sphere = make_surface("sphere", radius=1.0)
    A = SurfacePoint(1.1, 0.2)
    B = SurfacePoint(1.7, 1.4)
    path = connect_geodesic(sphere, A, B)
    oracle = math.acos(float(sphere.embed(A) @ sphere.embed(B)))
    print(f"sphere: solver {path.length:.12f} vs arccos oracle "
          f"{oracle:.12f} (diff {abs(path.length - oracle):.2e})")
    print(f"departure heading {path.theta_start:.6f}, arrival heading "
          f"{path.theta_end:.6f}")

    cylinder = make_surface("cylinder", radius=1.0)
    P = SurfacePoint(0.0, 0.0)
    Q = SurfacePoint(1.0, 1.5 * math.pi)  # stored on the universal cover
    path = connect_geodesic(cylinder, P, Q)
    print(f"\ncylinder with dv = 3pi/2: length {path.length:.6f} "
          f"(unrolled oracle {math.hypot(1.0, math.pi / 2):.6f}), "
          f"winding {path.winding}")

    Q = SurfacePoint(0.7, math.pi)
    path = connect_geodesic(cylinder, P, Q)
    print(f"cylinder with dv = pi: two helices tie, ambiguous = "
          f"{path.ambiguous}")

    plane = make_surface("plane")
    d = connect_geodesic(plane, SurfacePoint(1.0, 0.0),
                         SurfacePoint(2.0, math.pi / 3)).length
    print(f"\nplane law of cosines: {d:.12f} vs sqrt(3) = "
          f"{math.sqrt(3.0):.12f}")

    print("\ndistances are symmetric and bounded below by the chord:")
    rng = np.random.default_rng(1)
    for _ in range(3):
        A = SurfacePoint(rng.uniform(0.9, 2.0), rng.uniform(-1.0, 1.0))
        B = SurfacePoint(rng.uniform(0.9, 2.0), rng.uniform(-1.0, 1.0))
        fwd = connect_geodesic(sphere, A, B).length
        bwd = connect_geodesic(sphere, B, A).length
        chord = float(np.linalg.norm(sphere.embed(A) - sphere.embed(B)))
        print(f"  d = {fwd:.9f}, |d - d_reversed| = {abs(fwd - bwd):.2e}, "
              f"chord = {chord:.9f}")

    opts = ConnectOptions(max_len=0.5)
    try:
        connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                         SurfacePoint(5.0, 1.0), opts)
    except Exception as exc:
        print(f"\nsearch cap respected: {exc}")


if __name__ == "__main__":
    main()

"""Weighted Fermat-Torricelli trees: forward and inverse problems.

The forward solver finds the branching point minimising the weighted sum
of geodesic distances; the inverse recovers the weights from the branch
sector angles.  Includes the interior-versus-vertex test and the planted
tree construction that makes the true minimiser known in advance.
"""

import math

from geofermat import (SurfacePoint, floating_test, make_surface,
                       sector_angles_from_weights, shoot, solve_fermat,
                       weights_from_sector_angles)


def main():
    plane = make_surface("plane")

    # equilateral triangle of side 1 around the embedded point (2, 0)
    pts = []
    for ang in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                math.pi / 2 + 4 * math.pi / 3):
        x = 2.0 + math.cos(ang) / math.sqrt(3.0)
        y = math.sin(ang) / math.sqrt(3.0)
        pts.append(SurfacePoint(math.hypot(x, y), math.atan2(y, x)))

    res = solve_fermat(plane, pts, (1.0, 1.0, 1.0))
    x, y, _ = plane.embed(res.point)
    print(f"equal weights, equilateral triangle: branching point at "
          f"({x:.9f}, {y:.9f}), all sectors "
          f"{[round(a, 6) for a in res.sector_angles]}")
    print(f"balance residual {res.residual:.2e} after {res.iterations} "
          f"steps; objective {res.f_history[0]:.9f} -> "
          f"{res.f_history[-1]:.9f}")

    print("\nA dominant weight pins the minimiser to its terminal:")
    regime = floating_test(plane, pts, (1.0, 1.0, 3.0))
    print(f"floating test margins: "
          f"{[round(m, 3) for m in regime.margins]} -> {regime.mode}")
    res = solve_fermat(plane, pts, (1.0, 1.0, 3.0))
    print(f"solution mode: {res.mode}, at terminal {res.vertex_index + 1}")

    print("\nSector angles depend only on the weights:")
    b = (2.0, 3.0, 4.0)
    phi = sector_angles_from_weights(b)
    print(f"weights {b} -> sectors {[round(math.degrees(a), 3) for a in phi]}"
          f" deg, sum {math.degrees(sum(phi)):.1f} deg")
    back = weights_from_sector_angles(phi, total=sum(b))
    print(f"inverse recovers {[round(x, 12) for x in back.astuple()]}")

    print("\nPlanted tree on a paraboloid (ground truth known):")
    paraboloid = make_surface("paraboloid", a=1.0)
    center = SurfacePoint(1.0, 0.2)
    theta0 = 1.9
    headings = (theta0, theta0 + phi[0], theta0 + phi[0] + phi[1])
    lengths = (0.3, 0.4, 0.5)
    terminals = [shoot(paraboloid, center, th, L).end()
                 for th, L in zip(headings, lengths)]
    res = solve_fermat(paraboloid, terminals, b)
    E, G, _, _, _ = paraboloid.metric_terms(center.u)
    gap = math.hypot(math.sqrt(E) * (res.point.u - center.u),
                     math.sqrt(G) * (res.point.v - center.v))
    print(f"recovered the planted point to {gap:.2e} surface distance; "
          f"sector angles match the weight formula to "
          f"{max(abs(a - e) for a, e in zip(res.sector_angles, phi)):.2e} rad")


if __name__ == "__main__":
    main()

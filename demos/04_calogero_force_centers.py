"""The Calogero chain in relative coordinates and its force-center geometry.

Removing the center of mass with an orthonormal Jacobi map leaves an
(n-1)-dimensional conformal system. On the sphere, each particle pair
contributes a sphere-oscillator well centered on the image of its axis:
three centers spaced 2pi/3 on the circle for n=3, the twelve vertices of a
cuboctahedron for n=4.
"""

import collections

import numpy as np

from confmech import models

print("== two particles: back to the 1D system ==")
c2 = models.calogero_relative(2, 1.0)
y = 0.7
print(f"V(y) = {c2.V.fn(np.array([y]), np.zeros(1)):.6f}"
      f"  vs  g^2/(2 y^2) = {1 / (2 * y * y):.6f}")

print("\n== three particles: energy bookkeeping ==")
x = np.array([1.2, 0.1, -0.9])
p = np.array([0.3, -0.1, -0.2])
c3 = models.calogero_relative(3, 1.0)
full = models.full_calogero_hamiltonian(3, 1.0)
red = models.reduce_calogero_state(x, p)
h_full = full.fn(x, p)
h_com = np.sum(p) ** 2 / 6.0
h_red = c3.H.fn(red.q, red.p)
print(f"full H = {h_full:.10f}")
print(f"reduced H + COM kinetic = {h_red + h_com:.10f}")

print("\n== force centers ==")
sd3 = models.singular_directions(3)
deg = np.sort(np.degrees(np.mod(np.arctan2(sd3[:, 1], sd3[:, 0]),
                                2 * np.pi)))
print(f"n=3: six directions at {np.round(deg, 6)} degrees (pi/3 apart;"
      " three centers modulo antipodality)")

sd4 = models.singular_directions(4)
counts = collections.Counter()
for i in range(12):
    for j in range(i + 1, 12):
        ang = np.degrees(np.arccos(np.clip(sd4[i] @ sd4[j], -1, 1)))
        counts[round(ang)] += 1
print(f"n=4: twelve directions, pairwise angles {dict(sorted(counts.items()))}")
print("     (the cuboctahedron angle multiset)")

print("\n== each pair term is a sphere-oscillator well ==")
centers = sd3[:3]
angle = 0.35
yhat = np.array([np.cos(angle), np.sin(angle)])
u_direct = c3.V.fn(yhat, np.zeros(2))
u_wells = sum(0.5 / (yhat @ c) ** 2 for c in centers)
print(f"U(angle={angle}) = {u_direct:.10f}")
print(f"sum of (g^2/2) sec^2(angle to center) = {u_wells:.10f}")
print("the potential diverges on the equator perpendicular to each center:")
perp = np.array([-centers[0][1], centers[0][0]])
print(f"  U at 1e-4 from an equator point: "
      f"{c3.V.fn(perp + 1e-4 * centers[0], np.zeros(2)):.3e}")

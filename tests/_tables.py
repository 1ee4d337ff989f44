"""Frozen reference values shared across the test modules.

The eigenvalue tables cover the two worked container examples: the
triangle with surface angles 2pi/5 and pi/6 on a length-2 surface
(Neumann and Dirichlet wall columns) and the two curvilinear containers
with one Dirichlet and one Neumann wall.  Each row is
(k, lambda, sigma) per column family, where sigma is the closed-form
lattice value at the same printed precision.

Beam roots are the positive solutions of cos(x) * cosh(x) = 1, frozen
from a bisection solve at double precision.  The contour imaginary
parts were frozen from an independent multi-precision quadrature.
"""

# k, lambda (Neumann), sigma (Neumann), lambda (Dirichlet), sigma (Dirichlet)
EX1_TABLE = (
    (1, 0.0, -0.88357, 2.43592, 2.45437),
    (2, 0.85626, 0.68722, 4.02389, 4.02517),
    (3, 2.28840, 2.2580, 5.59623, 5.59596),
    (4, 3.82292, 3.8288, 7.16681, 7.16676),
    (5, 5.39779, 5.3996, 8.73757, 8.73755),
    (6, 6.96977, 6.9704, 10.3084, 10.3084),
    (7, 8.54086, 8.5412, 11.8792, 11.8791),
    (8, 10.1118, 10.112, 13.4500, 13.4499),
    (9, 11.6827, 11.683, 15.0208, 15.0207),
    (10, 13.2535, 13.254, 16.5916, 16.5915),
)

# k, lambda (plus container), sigma (plus), lambda (minus), sigma (minus)
EX2_TABLE = (
    (1, 1.02371, 2.15294, 1.24543, 0.430589),
    (2, 5.65749, 4.73648, 2.63524, 3.01412),
    (3, 8.13194, 7.32001, 5.55627, 5.59765),
    (4, 10.3085, 9.90354, 8.22122, 8.18119),
    (5, 12.8138, 12.4871, 10.6845, 10.7647),
    (6, 15.3856, 15.0706, 13.1122, 13.3483),
    (7, 17.9151, 17.6541, 15.7600, 15.9318),
    (8, 20.4310, 20.2377, 18.4111, 18.5153),
    (9, 22.9800, 22.8212, 21.0011, 21.0988),
    (10, 25.5511, 25.4047, 23.5873, 23.6824),
)

EX2_SURFACE_LENGTH = 1.21601

BEAM_ROOTS = (
    4.730040744862704,
    7.853204624095838,
    10.995607838001671,
    14.137165491257464,
    17.278759657399481,
)

# Unit-surface tank whose floor carries a needle-thin spike reaching to
# just below the surface.  Coarse boundary sampling cannot recover the
# spike edges in the Delaunay step, so meshing fails deterministically
# at h in {0.4, 0.3, 0.2} and succeeds at h = 0.1.
NOTCH_WALL_POINTS = (
    (0.0, 0.0),
    (0.0, -0.6),
    (0.50, -0.6),
    (0.53, -0.02),
    (0.56, -0.6),
    (1.0, -0.6),
    (1.0, 0.0),
)

CONTOUR_IM_J = {
    0.75: 1.725696147612,
    1.0: 2.177586090304,
    1.5: 2.814489192763,
    2.0: 3.266379135455,
    3.0: 3.903282237915,
}


# sha256 of nodes.tobytes(), triangles.tobytes() and repr(boundary_edges) for
# the mesh-equivalence domains of test_geometry.py, keyed (name, h, grading
# factor).  Recorded with numpy 2.4 on x86-64 Linux before the crossing
# sweep, the band-only quality test and the batched boundary walk went in;
# those reworks must not move a byte.  Another libm may round the curved
# boundaries differently.
MESH_DIGESTS = {
    ("ex1-neumann", 0.04, 0.25): "ae7c575b7e2847c89c94fc66689872f0e926d8c4faae99fa22737d7cf1dda4ce",
    ("ex1-neumann", 0.04, 1.0): "feff43b573f92771e8d0c14003fd254380c05b85fe570938165fe0b6da785edf",
    ("ex1-neumann", 0.02, 0.25): "f6a061031bfddefdf84b6cef9f8c925556bf8a2ebaa59841a4588f377386832f",
    ("ex1-neumann", 0.02, 1.0): "a210d92ecb06a886ea03c84063b36ec73766157edcdf8e8428179ce8cb63747e",
    ("ex1-dirichlet", 0.04, 0.25): "97538263603b3acd63dc0b787a8b144dc4d7408178e2877b06b598a9c1c7b11f",
    ("ex1-dirichlet", 0.04, 1.0): "81fcd7dd6cae842d83895a6cbf17031ee8279373eee122f45f946e67fadc9971",
    ("ex1-dirichlet", 0.02, 0.25): "905377a0bd2068d710619e9f1bf1c1cd05de69560586218a2cdab02aa672b2a2",
    ("ex1-dirichlet", 0.02, 1.0): "dd9e254b9ecee0300a7f289a8cc24f71a8cbad7b20a9ad779d1784d6313751b2",
    ("ex2+", 0.04, 0.25): "801a57053a798504da6afe10c0e77c843bd514aee9a8825ea91dcacfa54e4851",
    ("ex2+", 0.04, 1.0): "7e24ec872884c79f22b7fc7ed85ff7b006241932657f12738e9d718375afa838",
    ("ex2+", 0.02, 0.25): "f0eb2b16f046b80b36a39c2abefee22dc9d4c7983ed22fc63bf11bd86bd5eee5",
    ("ex2+", 0.02, 1.0): "e1c4228fd069b186f4299a7db7c448796c0701cfe0779b585511e077f30acd49",
    ("ex2-", 0.04, 0.25): "f1ac10a4ad05d9537271f864e3c4527e187824dd7284f47849f1cf6ba42afc70",
    ("ex2-", 0.04, 1.0): "92632d0621a20595a3c7a7d168d85d3af003743abcaf55c8304b17032966e517",
    ("ex2-", 0.02, 0.25): "658b1f044ce64fa297cae898416b0b70ed53f60de28f140c848c11fa6eebd5e4",
    ("ex2-", 0.02, 1.0): "dd6f76d0234b7f6eaa60fe702626cc16a463b8ac765b1237bc3d731ec18c73c2",
    ("q2", 0.04, 0.25): "06a53637629d70f9256774f79386fe41d667a682e31cdd09f6b48e6f240f34ec",
    ("q2", 0.04, 1.0): "5f4c32afd0672ade0d5bc7f1660aae998b807fd98613e99e7cafd3f7ce2a1bcc",
    ("q2", 0.02, 0.25): "68210c0e9637c9b1d5f784cbc9208fddf1d3c038cd59d346e9f2af09806cf070",
    ("q2", 0.02, 1.0): "ef18d79cbe7092069284d2e091ff6f6b8f57e7f5743ac272542b86b8f285311c",
    ("q3", 0.04, 0.25): "3ce18b594cb7c5a33a1b7fab7206c8c8e0a4cb31800ea1d9d73d14d3393b8a38",
    ("q3", 0.04, 1.0): "2486e23e8c06fe020c79b40c39832e6f656c1a5e63f79dd56b5544deef086dc3",
    ("q3", 0.02, 0.25): "33c75be767ec9a3c7de97d7a7acb099cb96c005807aa926b995d76cfe6ff4500",
    ("q3", 0.02, 1.0): "6142a71773ee40e0681b700038f42238f9c31dd936a49d67b884b738f4b3c637",
    ("q4", 0.04, 0.25): "f2036ad12f7ed37bd9ee57bc6cb844e710d91018810d15f08ec857ee38161fdf",
    ("q4", 0.04, 1.0): "120c520cf3a8f0913ed9bdaf4b2d8f68ae53caa3299317dce7a153d3fb107338",
    ("q4", 0.02, 0.25): "cbf7cdccfa1f4de7178aceff7dc2d8a29c6fc7869969ca4fbf53d052238caa36",
    ("q4", 0.02, 1.0): "5d8595a05c64e402839431cc451840bfdcdcd8940009f02df569663817c4f3b9",
}

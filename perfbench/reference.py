"""Frozen published answers the benchmark checks against.

These are copies, not imports from ``quartaut.verify``: a change to the
program cannot change an answer and its reference in the same commit.
Matrices act on (H, W) coordinate columns of the curve-bearing models.
"""

PARTITION = {
    9: "Trivial", 12: "Trivial", 16: "Trivial", 24: "Trivial", 25: "Trivial",
    33: "Trivial", 36: "Trivial", 44: "Trivial", 49: "Trivial", 57: "Trivial",
    17: "Z2", 41: "Z2",
    28: "Z2starZ2", 56: "Z2starZ2",
    20: "Z", 32: "Z", 40: "Z", 48: "Z",
}

ADMISSIBLE = (9, 12, 16, 17, 20, 24, 25, 28, 32, 33, 36, 40, 41, 44, 48, 49, 56, 57)

EXCLUDED_BELOW_BOUND = (52,)

# r -> ((b, c), (genus, degree)) of the model in which W is a catalog curve.
CURVE_MODELS = {
    17: ((11, 13), (14, 11)),
    20: ((10, 10), (11, 10)),
    28: ((10, 9), (10, 10)),
    32: ((8, 4), (5, 8)),
    40: ((8, 3), (4, 8)),
    41: ((9, 5), (6, 9)),
    48: ((8, 2), (3, 8)),
    56: ((8, 1), (2, 8)),
}

GENERATORS = {
    17: (((19, 72), (-5, -19)),),
    20: (((29, 40), (-8, -11)),),
    28: (((23, 88), (-6, -23)), ((-7, -8), (6, 7))),
    32: (((41, 24), (-12, -7)),),
    40: (((43, 18), (-12, -5)),),
    41: (((27, 104), (-7, -27)),),
    48: (((209, 56), (-56, -15)),),
    56: (((31, 120), (-8, -31)), ((-1, 0), (8, 1))),
}

# (genus, degree) of the nine curve-blowup links, in catalog order.
LINK_ROWS = ((14, 11), (6, 9), (10, 10), (2, 8), (11, 10), (3, 6), (5, 8), (4, 8), (3, 8))

ANTIFLIP_SOLVABLE = {(15, 11)}

VERIFY_CHECKS = 142
VERIFY_FAILURES = 0

AUT_TAGS = ("Trivial", "Z2", "Z2starZ2", "Z")

"""Golden decision table: hand-evaluated cases frozen as certificates.

Every expected threshold below was derived by hand from the closed-form
constants (2*c_n*ell0^eps with eps = d*M or d^2*M or the h+-weighted
variants, and the 2^(2dg+1)*binom(2g,g) family) before the decision code
was written; the test asserts the certificate fields against these literals
and then byte-compares the whole certificate against tests/golden/.
"""

Q1 = {"d": 1, "disc": 1, "h_plus": 1}
Q1_GAL = {"d": 1, "disc": 1, "h_plus": 1, "galois_odd_degree": True}


def bullet(n, ell0, r, w, cyclotomic=False):
    p = {"n": n, "ell0": ell0, "r": r, "variant": "bullet", "w": w}
    if cyclotomic:
        p["cyclotomic"] = True
    return p


# (name, command, document, per-ell expected verdict fragments)
CASES = [
    ("cor1_empty_a_16", "decide",
     {"field": Q1, "params": bullet(2, 2, 1, 1, True), "query": {"ell": 17}},
     {17: [("Trivial", "NotDecided", None, 0),
           ("Cor1", "Empty", "a", 16),
           ("Cor2", "Empty", "a", 16)]}),

    ("cor1_below_threshold_13", "decide",
     {"field": Q1, "params": bullet(2, 2, 1, 1, True), "query": {"ell": 13}},
     {13: [("Trivial", "NotDecided", None, 0),
           ("Cor1", "NotDecided", None, 0),
           ("Cor2", "NotDecided", None, 0)]}),

    # n = 3, w = 1, d = 1: M = 3, C1' = C2' = 2*3*2^3 = 48
    ("cor2_dim3_threshold_48", "decide",
     {"field": Q1, "params": bullet(3, 2, 1, 1), "query": {"ell": 53}},
     {53: [("Trivial", "NotDecided", None, 0),
           ("Cor2", "Empty", "a", 48)]}),

    # standing hypothesis w odd or w > 2r fails at w = 2, r = 1
    ("standing_hypothesis_fails", "decide",
     {"field": Q1, "params": bullet(2, 2, 1, 2, True), "query": {"ell": 1000003}},
     {1000003: [("Trivial", "NotDecided", None, 0),
                ("Cor1", "NotDecided", None, 0),
                ("Cor2", "NotDecided", None, 0)]}),

    # split prime gates Cor2 off regardless of size
    ("cor2_split_gated", "decide",
     {"field": {"d": 2, "disc": 5, "h_plus": 1}, "params": bullet(2, 3, 1, 1),
      "query": {"ell": 1000003, "splits_in_K": True}},
     {1000003: [("Trivial", "NotDecided", None, 0),
                ("Cor2", "NotDecided", None, 0)]}),

    # n, w odd over a Galois field of odd degree: empty outright; the
    # n = 1 threshold C1' = 2*c_1*2^1 = 4 also certifies via Cor2
    ("trivial_case_empty", "decide",
     {"field": Q1_GAL, "params": bullet(1, 2, 1, 1), "query": {"ell": 5}},
     {5: [("Trivial", "Empty", "trivial", 0),
          ("Cor2", "Empty", "a", 4)]}),

    # d = 2 blocks (b), divides_disc blocks (a), w <= 2r blocks (c)/(d);
    # (e) fires at C2' = 2*3*2^(4*3) = 24576
    ("cor2_situation_e_24576", "decide",
     {"field": {"d": 2, "disc": 5, "h_plus": 1}, "params": bullet(3, 2, 1, 1),
      "query": {"ell": 24593, "divides_disc": True}},
     {24593: [("Trivial", "NotDecided", None, 0),
              ("Cor2", "Empty", "e", 24576)]}),

    # w = 3 > 2r and odd: M = max(2, 3) = 3, C1 = 2*2*2^3 = 32
    ("cor1_w3_threshold_32", "decide",
     {"field": Q1, "params": bullet(2, 2, 1, 3, True), "query": {"ell": 37}},
     {37: [("Trivial", "NotDecided", None, 0),
           ("Cor1", "Empty", "a", 32),
           ("Cor2", "Empty", "a", 32)]}),

    # 2^(2g*d+1)*binom(2g,g): g=1 -> 2^3*2 = 16
    ("rt_st_g1_16", "rt",
     {"field": Q1, "query": {"g": 1, "ell": 17, "variant": "st"}},
     {17: [("RTst", "Empty", "a", 16)]}),

    # g=2 -> 2^5*6 = 192
    ("rt_st_g2_192", "rt",
     {"field": Q1, "query": {"g": 2, "ell": 193, "variant": "st"}},
     {193: [("RTst", "Empty", "a", 192)]}),

    # 2*ell0^(2dgh+)*binom(2g,g): 2*2^2*2 = 16
    ("rt_grt_g1_16", "rt",
     {"field": Q1, "query": {"g": 1, "ell": 17, "variant": "st_with_ell0", "ell0": 2}},
     {17: [("GRTst", "Empty", "a", 16)]}),

    ("rt_st_g1_below", "rt",
     {"field": Q1, "query": {"g": 1, "ell": 13, "variant": "st"}},
     {13: [("RTst", "NotDecided", None, 0)]}),

    # d = 3 odd, ell | d_K: (b) at 2^(2*9*1+1)*2 = 2^20 = 1048576
    ("rt_st_odd_degree_b", "rt",
     {"field": {"d": 3, "disc": 49, "h_plus": 1},
      "query": {"g": 1, "ell": 1048583, "variant": "st", "divides_disc": True}},
     {1048583: [("RTst", "Empty", "b", 1048576)]}),

    # 4*ell_E^(2dh+): 4*2^2 = 16
    ("ec_irred_ellE2_16", "ec-irred",
     {"field": Q1, "query": {"ell_E": 2, "ell": 17}},
     {17: [("Ell", "Empty", "a", 16)]}),

    # 4*3^2 = 36
    ("ec_irred_ellE3_36", "ec-irred",
     {"field": Q1, "query": {"ell_E": 3, "ell": 37}},
     {37: [("Ell", "Empty", "a", 36)]}),

    ("ec_irred_split_gated", "ec-irred",
     {"field": {"d": 2, "disc": 8, "h_plus": 1},
      "query": {"ell_E": 2, "ell": 67, "splits_in_K": True}},
     {67: [("Ell", "NotDecided", None, 0)]}),

    # 2*c_2*ell_X^(b_w*d*h*w) = 2*2*2^2 = 16
    ("etale_b2_16", "etale",
     {"field": Q1, "query": {"b_w": 2, "ell_X": 2, "w": 1, "ell": 17}},
     {17: [("Et", "Empty", "a", 16)]}),

    # 2*c_4*2^4 = 2*6*16 = 192
    ("etale_b4_192", "etale",
     {"field": Q1, "query": {"b_w": 4, "ell_X": 2, "w": 1, "ell": 193}},
     {193: [("Et", "Empty", "a", 192)]}),

    ("gate_below_bound_64", "gate",
     {"query": {"poly": [2, 1, 1], "q": 2, "weights": [1, 1],
                "s": 2, "u": 2, "t": [1, 1], "ell": 7}},
     None),

    ("constants_bullet_2211", "constants",
     {"field": Q1, "params": bullet(2, 2, 1, 1)},
     None),
]

# non-decision cases carry their expectations here
EXTRA_CHECKS = {
    "gate_below_bound_64": lambda cert: (
        cert["verdicts"][0]["outcome"] == "CongruentBelowBound"
        and cert["verdicts"][0]["bound"] == 64),
    "constants_bullet_2211": lambda cert: (
        cert["constants"]["C1"] == 16 and cert["constants"]["C1p"] == 16
        and cert["constants"]["C2"] == 16 and cert["constants"]["C2p"] == 16
        and cert["constants"]["M"] == "2/1" and cert["constants"]["c_n"] == 2),
}

# commands the benchmark derives no body for, kept out of CASES, whose every
# entry it reads: (name, command, document, check of the certificate), each
# expected value derived by hand
OTHER_CASES = [
    # roots a, b of T^2+T+2: a^2+b^2 = (a+b)^2 - 2ab = 1 - 4 = -3 and
    # a^2*b^2 = 4, so the squares are the roots of T^2+3T+4
    ("power_transform_s2", "power-transform",
     {"query": {"poly": [2, 1, 1], "s": 2}},
     lambda cert: cert["result"] == [4, 3, 1]),

    # (T^2+2)(T^2-T+2) = T^4-T^3+4T^2-2T+4: both factors have complex roots
    # of product 2, so |alpha| = 2^(1/2); c_0 = 2^2 and c_1 = 2*c_3
    ("weil_check_quartic_q2", "weil-check",
     {"query": {"poly": [4, -2, 4, -1, 1], "q": 2, "weights": [1, 1, 1, 1]}},
     lambda cert: cert["weights_valid"] is True and cert["functional_equation"] is True),

    # 5 = 1*3 + 2, modulus 3^2-1 = 8: orbit 5, 5*3 mod 8 = 7
    ("tame_weights_ell3_h2", "tame-weights",
     {"query": {"ell": 3, "h": 2, "n_f": 5}},
     lambda cert: cert["digits"] == [1, 2] and cert["orbit"] == [5, 7]
     and cert["canonical"] == 5),
]

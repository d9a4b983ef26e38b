"""Golden decision table: hand-evaluated cases frozen as certificates.

Every expected threshold below was derived by hand from the closed-form
constants (2*c_n*ell0^eps with eps = d*M or d^2*M or the h+-weighted
variants, and the 2^(2dg+1)*binom(2g,g) family) before the decision code
was written.  `hand_check` asserts a certificate's fields against these
literals; criterion 6 of the acceptance suite runs it on each certificate
it byte-compares against tests/golden/, and scripts/regen_golden.py on each
before it writes any.  Nothing here imports the package.
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

def ladder(cert):
    """Every verdict of a decision certificate, ell by ell, as (theorem,
    conclusion, situation, threshold, trace), each trace entry a pair."""
    return [(v["theorem"], v["conclusion"], v["situation"], v["threshold"],
             [tuple(h) for h in v["trace"]])
            for entry in cert["verdicts"] for v in entry.get("verdicts", [entry])]


T, F = True, False
D3 = {"d": 3, "disc": 49, "h_plus": 1}   # the cubic subfield of Q(zeta_7)
D2_37 = {"d": 2, "disc": 37, "h_plus": 1}  # Q(sqrt 37): 37 ramifies; 6+sqrt 37 has norm -1
NONSPLIT = ("ell_does_not_split_in_K", T)


def trivial_gate(n_odd, w_odd):
    # no field below is flagged Galois of odd degree, and no ell is ell0
    return [("n_odd", n_odd), ("w_odd", w_odd), ("galois_odd_degree", F), ("ell_ne_ell0", T)]


def cor_pair(situation, threshold, hypotheses):
    """Cor1 and Cor2 certifying Empty in the same situation: h_plus = 1, so
    Cor2's primed thresholds are Cor1's."""
    return [("Cor1", "Empty", situation, threshold, [("w_odd_or_w_gt_2r", T), *hypotheses]),
            ("Cor2", "Empty", situation, threshold,
             [("w_odd_or_w_gt_2r", T), NONSPLIT, *hypotheses])]


# commands or situations the benchmark derives no body for, kept out of
# CASES, whose every entry it reads: (name, command, document, check of the
# certificate), each expected value derived by hand
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

    # A situation after (a) fires only where (a)'s hypotheses fail.  Each
    # threshold is 2*c_n*ell0^ceil(e), M = max(n*r, n*w/2), e = d*M (a) or
    # d^2*M (b); the least prime above it comes from trial division.

    # n = 1, r = 0, w = 1: M = 1/2, c_1 = 1; d = 3: (a) 2*2^ceil(3/2) = 8,
    # (b) 2*2^ceil(9/2) = 64.  ell | disc (flagged) fails (a); d is odd: (b)
    ("cor_situation_b_64", "decide",
     {"field": D3, "params": bullet(1, 2, 0, 1, True), "query": {"ell": 67, "divides_disc": True}},
     lambda cert: ladder(cert) == [
         ("Trivial", "NotDecided", None, 0, trivial_gate(T, T)),
         *cor_pair("b", 64, [("w_odd", T), ("degree_odd", T), ("ell_gt_threshold", T)])]),

    # n = 2, r = 0, w = 2 over Q: M = 2, c_2 = 2, (a) = (b) = 2*2*3^2 = 36.
    # w is even, so (a) and (b) fail; w = 2 > 2r: (c)
    ("cor_situation_c_36", "decide",
     {"field": Q1, "params": bullet(2, 3, 0, 2, True), "query": {"ell": 37}},
     lambda cert: ladder(cert) == [
         ("Trivial", "NotDecided", None, 0, trivial_gate(F, F)),
         *cor_pair("c", 36, [("w_gt_2r", T), ("ell_not_dividing_disc", T),
                             ("ell_gt_threshold", T)])]),

    # n = 1, r = 0, w = 2: M = 1, c_1 = 1; d = 2: (a) 2*2^2 = 8, (b) 2*2^4 = 32.
    # w is even; 37 divides the discriminant 37, so (c) fails: (d)
    ("cor_situation_d_32", "decide",
     {"field": D2_37, "params": bullet(1, 2, 0, 2, True), "query": {"ell": 37}},
     lambda cert: ladder(cert) == [
         ("Trivial", "NotDecided", None, 0, trivial_gate(T, F)),
         *cor_pair("d", 32, [("w_gt_2r", T), ("ell_gt_threshold", T)])]),

    # n = 1, r = 1, w = 1: M = 1, c_1 = 1; d = 2: (a) 8, (b) 32.  37 | 37
    # fails (a), d even (b), w = 1 <= 2r (c) and (d); n and w are odd: (e)
    ("cor_situation_e_32", "decide",
     {"field": D2_37, "params": bullet(1, 2, 1, 1, True), "query": {"ell": 37}},
     lambda cert: ladder(cert) == [
         ("Trivial", "NotDecided", None, 0, trivial_gate(T, T)),
         *cor_pair("e", 32, [("w_odd", T), ("n_odd", T), ("ell_gt_threshold", T)])]),

    # 4*ell_E^(2dh) = 4*2^6 = 256 and 4*ell_E^(2d^2h) = 4*2^18 = 1048576;
    # ell | disc (flagged) fails (a); d = 3 is odd: (b)
    ("ec_irred_situation_b_1048576", "ec-irred",
     {"field": D3, "query": {"ell_E": 2, "ell": 1048583, "divides_disc": True}},
     lambda cert: ladder(cert) == [
         ("Ell", "Empty", "b", 1048576,
          [NONSPLIT, ("degree_odd", T), ("ell_gt_threshold", T)])]),

    # 2*c_2*ell_X^(d*b_w*w*h) = 4*3^6 = 2916 and 4*3^(9*2) = 1549681956
    ("etale_situation_b_1549681956", "etale",
     {"field": D3, "query": {"b_w": 2, "ell_X": 3, "w": 1, "ell": 1549681967,
                             "divides_disc": True}},
     lambda cert: ladder(cert) == [
         ("Et", "Empty", "b", 1549681956,
          [NONSPLIT, ("degree_odd", T), ("ell_gt_threshold", T)])]),

    # g = 2, c_4 = 6: 2*6*ell0^(2dgh) = 12*2^12 = 49152 and 12*2^(2*9*2) = 824633720832
    ("rt_grt_situation_b_824633720832", "rt",
     {"field": D3, "query": {"g": 2, "variant": "st_with_ell0", "ell0": 2, "ell": 824633720837,
                             "divides_disc": True}},
     lambda cert: ladder(cert) == [
         ("GRTst", "Empty", "b", 824633720832,
          [NONSPLIT, ("degree_odd", T), ("ell_gt_threshold", T)])]),

    # over Q both thresholds are 2*c_2*2^2 = 16, and 13 passes neither
    ("etale_below_threshold_13", "etale",
     {"field": Q1, "query": {"b_w": 2, "ell_X": 2, "w": 1, "ell": 13}},
     lambda cert: ladder(cert) == [
         ("Et", "NotDecided", None, 0,
          [NONSPLIT, ("a:ell_not_dividing_disc", T), ("a:ell_gt_threshold", F),
           ("b:degree_odd", T), ("b:ell_gt_threshold", F)])]),

    # 1031 = 1 mod 5 splits in Q(sqrt 5), as flagged: past both thresholds,
    # 4*2^4 = 64 and 4*2^8 = 1024, the gate still fails
    ("rt_grt_split_gated", "rt",
     {"field": {"d": 2, "disc": 5, "h_plus": 1},
      "query": {"g": 1, "variant": "st_with_ell0", "ell0": 2, "ell": 1031, "splits_in_K": True}},
     lambda cert: ladder(cert) == [
         ("GRTst", "NotDecided", None, 0,
          [("ell_does_not_split_in_K", F), ("a:ell_not_dividing_disc", T),
           ("a:ell_gt_threshold", T), ("b:degree_odd", F), ("b:ell_gt_threshold", T)])]),
]


def hand_check(name: str, cert: dict) -> bool:
    """Whether the certificate of the golden `name` carries the values
    derived by hand above: each ell's verdict fragments for a CASES entry,
    else its check in EXTRA_CHECKS or OTHER_CASES.  CASES keeps its 20
    entries, as the benchmark replays each of them."""
    if len(CASES) != 20:
        return False
    checks = {**EXTRA_CHECKS, **{n: check for n, _, _, check in OTHER_CASES}}
    if name in checks:
        return checks[name](cert)
    expected = next(fragments for n, _, _, fragments in CASES if n == name)
    return {entry["ell"]: [(v["theorem"], v["conclusion"], v["situation"], v["threshold"])
                           for v in entry.get("verdicts", [entry])]
            for entry in cert["verdicts"]} == expected

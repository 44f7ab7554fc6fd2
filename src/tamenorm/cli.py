"""Command-line certificate emission.

Subcommands: coeffs, verify-incl-excl, mackey-test, lfactor, classgroup,
tower, norm-relation.  Every command emits one JSON certificate, built by
`trc.run` (schema tag "trc-1"), with every numeric value exact; with --out,
coefficient tables also write CSV.
Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error.
Randomised property sampling is seeded and the seed is embedded in the
output, so identical configurations produce byte-identical certificates.
"""

import argparse
import contextlib
import csv
import json
import random
import sys
from fractions import Fraction

from . import classfield, hecke, lattice, lfactor, mackey, qcomb, trc
from .exactnum import ExactScalar
from .fingroup import CATALOG_NAMES
from .lfactor import CharacterValue, SatakeParams

MAX_SAMPLES = 1000  # largest mackey-test --samples


def _exact(x):
    """The JSON text of an exact number the encoder does not know."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"{type(x).__name__} is not a trc-1 value")


def emit(out, cert):
    """Stream the JSON certificate to `out`, or to stdout if `out` is empty,
    in one walk that makes no copy of it and no whole JSON string; with
    `out`, also write the CSV table, if any.  Return the exit code."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(cert, fh, sort_keys=True, indent=2, default=_exact)
        fh.write("\n")
    rows = cert["results"].get("csv_rows")
    if out and rows:
        path = out + ".csv" if not out.endswith(".json") else out[:-5] + ".csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerows(rows[1:])
    return 0 if cert["pass"] else 1


# ---------------------------------------------------------------------------
# subcommand drivers

def run_coeffs(args):
    ctx = hecke.HeckeContext(args.n, args.ell)
    table = qcomb.b_coefficients(ctx)
    cong = qcomb.congruence_certificates(ctx)
    phi, phi_cert = hecke.assemble_phi(ctx)
    a, a_cert = hecke.a_coefficients(ctx)
    rows = [["r", "b_r", "a_r", "index_K_V1r", "nu_image_order"]]
    for r, row in enumerate(a_cert["rows"]):
        rows.append([r, table.b[r], row["a"], row["index_K_V1r"], row["nu_image_order"]])
    results = {
        "coefficient_table": table.to_json_dict(),
        "congruences": cong,
        "phi_assembly": phi_cert,
        "a_coefficients": a_cert,
        "phi": hecke.serialize_cosets(phi, ctx),
        "csv_rows": rows,
    }
    ok = (table.certificates["all_b_integral"]
          and cong["pass"] and phi_cert["pass"] and a_cert["pass"])
    return trc.run("coeffs", _inputs(args, "n", "ell"), results, [("coeffs", ok)])


def run_verify_incl_excl(args):
    ie = lattice.verify_inclusion_exclusion(args.n, args.ell, args.depth)
    mi = lattice.verify_measure_identity(args.n, args.ell, args.depth)
    return trc.run("verify-incl-excl", _inputs(args, "n", "ell", "depth"),
                   {"inclusion_exclusion": ie, "measure_identity": mi},
                   [("lattice", ie["pass"] and mi["pass"])])


def _load_generator_file(path):
    """(generators, modulus, name) from a JSON {modulus, generators, name?} file."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        generators = [tuple(map(tuple, g)) for g in data["generators"]]
        modulus, name = data["modulus"], data.get("name", "matgrp")
    except (KeyError, TypeError, AttributeError):
        raise ValueError("a generator file holds {\"modulus\": N, \"generators\": "
                         "[matrices as lists of rows], \"name\": optional}") from None
    if not isinstance(name, str):
        raise ValueError("the group name must be a string")
    return generators, modulus, name


def run_mackey_test(args):
    rng = random.Random(args.seed)
    if args.generator_file:
        generators, modulus, args.group = _load_generator_file(args.generator_file)
        F = mackey.model_from_generators(generators, modulus, which=args.model,
                                         name=args.group)
    else:
        F = mackey.catalog_model(args.group, args.model)
    G = F.group
    levels = F.upsilon
    results = {"model": F.name, "group_order": len(G)}

    results["c_axioms"] = mackey.check_c_axioms(F, max(args.samples // 4, 8), rng)
    galois_ok = cartesian_ok = True
    for _ in range(args.samples):
        K = levels[rng.randrange(len(levels))]
        subs = [L for L in levels if L <= K]
        L = subs[rng.randrange(len(subs))]
        Lp = subs[rng.randrange(len(subs))]
        g_cert = mackey.check_galois_axiom(F, K, L)
        c_cert = mackey.check_cartesian_axiom(F, K, L, Lp)
        galois_ok = galois_ok and g_cert["pass"]
        cartesian_ok = cartesian_ok and c_cert["pass"]
    results["galois"] = {"pass": galois_ok, "cases_checked": args.samples}
    results["cartesian"] = {"pass": cartesian_ok, "cases_checked": args.samples}

    conv_ok = expansion_ok = True
    for _ in range(args.samples):
        K = levels[rng.randrange(len(levels))]
        Kp = levels[rng.randrange(len(levels))]
        Kpp = levels[rng.randrange(len(levels))]
        sigma = G.elements[rng.randrange(len(G))]
        tau = G.elements[rng.randrange(len(G))]
        ok_conv = mackey.check_convolution(F, K, Kp, Kpp, sigma, tau)["pass"]
        ok_exp, _ = mackey.check_coset_expansion(F, K, Kp, sigma)
        conv_ok = conv_ok and ok_conv
        expansion_ok = expansion_ok and ok_exp
    results["hecke_convolution"] = {"pass": conv_ok, "cases_checked": args.samples}
    results["hecke_coset_expansion"] = {"pass": expansion_ok, "cases_checked": args.samples}

    H = frozenset(G.elements)
    push_ok = True
    push_cases = 0
    for _ in range(args.samples // 4 + 5):
        K = levels[rng.randrange(len(levels))]
        normals = [L for L in levels if L <= K and G.is_normal(L, K)]
        L = normals[rng.randrange(len(normals))]
        x = dict.fromkeys(F.points, Fraction(1))
        g1 = G.elements[rng.randrange(len(G))]
        h = G.elements[rng.randrange(len(G))]
        g2 = G.elements[rng.randrange(len(G))]
        oks = [mackey.check_pushforward_well_defined(F, H, x, K, L),
               mackey.check_pushforward_equivariance(F, H, x, g1, K, h, g2),
               mackey.check_finite_level_diagram(F, H, G.conjugate(g1, K) & H, K, g1)]
        push_ok = push_ok and all(oks)
        push_cases += len(oks)
    results["completed_pushforward"] = {
        "pass": push_ok,
        "cases_checked": push_cases,
        "completion_note": "finite model: M-hat collapses to M({1}) = C(X); "
                           "the genuinely infinite direct limit is not probed",
    }

    ok = all(results[k]["pass"] for k in ("c_axioms", "galois", "cartesian",
                                          "hecke_convolution", "hecke_coset_expansion",
                                          "completed_pushforward"))
    return trc.run("mackey-test", _inputs(args, "group", "model", "samples", "seed"),
                   results, [("mackey", ok)])


def _parse_alpha(strings, n, ell):
    pairs = []
    for s in strings:
        try:
            e, k = map(int, s.split(":"))
        except ValueError:
            raise ValueError(f"--alpha {s!r} is not of the form e:k "
                             f"with integers e and k") from None
        pairs.append((e, k))
    if len(pairs) != 2 * n:
        raise ValueError(f"need exactly 2n = {2 * n} alpha values")
    return SatakeParams.from_root_exponents(n, ell, pairs)


def run_lfactor(args):
    sp = _parse_alpha(args.alpha, args.n, args.ell)
    chi = CharacterValue.primitive(args.ell, args.chi_order)
    central = lfactor.check_central_value(sp, chi)
    fp = lfactor.frob_poly_from_satake(sp)
    s_pow = ExactScalar.sqrt_ell(args.ell) ** (2 * args.n - 1)
    betas = [a * s_pow for a in sp.alpha]
    weil = lfactor.weil_weight_check(betas, args.n, args.ell)
    tame = lfactor.tame_factor(sp, chi)
    results = {
        "p_lambda": fp.p_lambda.serialize(),
        "p_central": fp.p_central.serialize(),
        "central_value": central,
        "weil_weights": weil,
        "tame_factor": tame.serialize(),
    }
    return trc.run("lfactor", _inputs(args, "n", "ell", "alpha", "chi_order"),
                   results, [("lfactor", central["pass"] and weil["pass"])])


def run_classgroup(args):
    cl = classfield.FormClassGroup(args.disc, args.conductor)
    k, chars = classfield.character_group(cl)
    data = cl.to_json_dict()
    data["characters"] = [list(chi) for chi in chars]
    data["character_order"] = k
    return trc.run("classgroup", _inputs(args, "disc", "conductor"), data,
                   [("classgroup", data["class_number_certificate"]["pass"])])


def run_tower(args):
    step, small, big = classfield.TowerStep.build(args.disc, args.conductor, args.ell)
    mapping, cert = classfield.norm_map(big, small)
    results = {
        "tower_step": step.to_json_dict(),
        "norm_map": cert,
        "h_small": small.order,
        "h_big": big.order,
    }
    return trc.run("tower", _inputs(args, "disc", "conductor", "ell"), results,
                   [("tower", cert["pass"])])


def run_norm_relation(args):
    """The end-to-end tame-norm-relation certificate.

    (1) coefficient tables with congruences; (2) the lattice measure
    identity; (3) phi assembly and the integral a coefficients; (4) ring
    class groups at conductors m and ell*m with the norm map; (5) the
    group-algebra L-factor decomposition: per character of Gal(E[m p^inf]/E)
    at the Frobenius (level m), and per character of Gal(E[ell m]/E) with
    level-raising characters evaluated on the norm-map kernel.
    """
    n, ell, d_E, m = args.n, args.ell, args.disc, args.conductor
    ctx = hecke.HeckeContext(n, ell)
    sp = _parse_alpha(args.alpha, n, ell)
    _, cl_small, cl_big = classfield.TowerStep.build(d_E, m, ell)
    results = {"seed": args.seed}

    # (1) coefficients and congruences
    table = qcomb.b_coefficients(ctx)
    cong = qcomb.congruence_certificates(ctx)
    results["step1_coefficients"] = {
        "table": table.to_json_dict(),
        "congruences": cong,
        "pass": table.certificates["all_b_integral"] and cong["pass"],
    }

    # (2) measure identity
    mi = lattice.verify_measure_identity(n, ell, args.depth)
    results["step2_measure_identity"] = mi

    # (3) phi assembly and a coefficients (optionally perturbed: must fail)
    phi, phi_cert = hecke.assemble_phi(ctx)
    if args.perturb_b1:
        b_perturbed = list(table.b)
        b_perturbed[min(1, n)] += 1
        rows = hecke.phi_identity_rows(table, b_perturbed)
        phi_cert = {
            "identity": "phi_assembly",
            "perturbed": "b_1 + 1",
            "rows": rows,
            "pass": all(r["pass"] for r in rows),
        }
    a, a_cert = hecke.a_coefficients(ctx)
    results["step3_phi"] = {"phi_assembly": phi_cert, "a_coefficients": a_cert,
                            "pass": phi_cert["pass"] and a_cert["pass"]}

    # (4) class groups and the norm map
    mapping, nm_cert = classfield.norm_map(cl_big, cl_small)
    results["step4_class_groups"] = {
        "small": cl_small.to_json_dict(),
        "big": cl_big.to_json_dict(),
        "norm_map": nm_cert,
        "pass": nm_cert["pass"],
    }

    # (5) L-factor decomposition
    tga = lfactor.tame_group_algebra_check(cl_small, sp)
    big_chi = lfactor.big_level_chi_decomposition(cl_big, cl_small, mapping, sp)
    results["step5_lfactor"] = {
        "level_m_group_algebra": tga,
        "level_ellm_chi_decomposition": big_chi,
        "pass": tga["pass"] and big_chi["pass"],
    }

    stages = [(step, cert["pass"]) for step, cert in results.items() if step != "seed"]
    return trc.run("norm-relation",
                   _inputs(args, "n", "ell", "disc", "conductor", "alpha", "depth",
                           "seed", "perturb_b1"),
                   results, stages)


def _inputs(args, *names):
    out = {"seed": args.seed}
    for nm in names:
        out[nm] = getattr(args, nm)
    return out


# ---------------------------------------------------------------------------
# argument parsing

def _sample_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_SAMPLES}, got {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tamenorm",
        description="Exact certificates for lattice, Hecke, Mackey and "
                    "class-group identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="", help="write the JSON certificate here")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("coeffs", help="coefficient tables with certificates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    common(p)

    p = sub.add_parser("verify-incl-excl", help="lattice inclusion-exclusion and measure identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    common(p)

    p = sub.add_parser("mackey-test", help="cohomology-functor axiom battery")
    p.add_argument("--group", default="S3", choices=CATALOG_NAMES)
    p.add_argument("--model", default="G", choices=["G", "cosets", "two"])
    p.add_argument("--samples", type=_sample_count, default=100)
    p.add_argument("--generator-file", default="", dest="generator_file",
                   help="JSON {modulus, generators: [[..]], name} matrix group "
                        "(replaces --group)")
    common(p)

    p = sub.add_parser("lfactor", help="local L-factor identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--alpha", nargs="+", required=True,
                   help="Satake parameters as e:k meaning zeta_k^e")
    p.add_argument("--chi-order", type=int, default=1, dest="chi_order")
    common(p)

    p = sub.add_parser("classgroup", help="ring class group data")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--conductor", type=int, default=1)
    common(p)

    p = sub.add_parser("tower", help="one split-prime tower step")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--m", type=int, default=1, dest="conductor")
    p.add_argument("--ell", type=int, required=True)
    common(p)

    p = sub.add_parser("norm-relation", help="end-to-end tame norm relation")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--conductor", type=int, default=1)
    p.add_argument("--alpha", nargs="+", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--perturb-b1", action="store_true", dest="perturb_b1",
                   help="negative control: the run must FAIL at step 3")
    common(p)

    return ap


DRIVERS = {
    "coeffs": run_coeffs,
    "verify-incl-excl": run_verify_incl_excl,
    "mackey-test": run_mackey_test,
    "lfactor": run_lfactor,
    "classgroup": run_classgroup,
    "tower": run_tower,
    "norm-relation": run_norm_relation,
}


def main(argv=None):
    args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
    try:
        cert = DRIVERS[args.command](args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"configuration error: {e}\n")
        return 2
    try:
        return emit(args.out, cert)
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

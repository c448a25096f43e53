"""The worked examples of the ``bijection`` command (``--demo``), loaded
only when a launch asks for one: each walks one element through a map and
back, printing what the map computes.

The demos parse their input with the partition readers here, render what
the maps compute, and the nu3 demo prints the fold of ``bijections._fold``.
"""

from __future__ import annotations

import argparse

from . import bijections
from .cli import _usage_error
from .errors import QidentError
from .partitions import (DistinctPartition, Partition, PartitionPair, SignedDistinctSet,
                         b2_weight, distinct_odd_to_selfconj, run_weight, staircase)


def part_str(p: Partition) -> str:
    return "(" + ",".join(str(v) for v in p.parts) + ")"


def set_str(s: SignedDistinctSet) -> str:
    return "{" + ",".join(str(v) for v in s.elements) + "}"


def ferrers(p: Partition, indent: str = "  ") -> str:
    return "\n".join(indent + "* " * v for v in p.parts)


def _ints(text: str, ends: str, shape: str) -> tuple:
    """The integers listed between the brackets ``ends`` of text."""
    text = text.strip()
    if not (text.startswith(ends[0]) and text.endswith(ends[1])):
        raise ValueError(f"{shape}: {text!r}")
    inner = text[1:-1].strip()
    return tuple(int(v) for v in inner.split(",")) if inner else ()


def parse_partition(text: str) -> Partition:
    return Partition(_ints(text, "()", "partition must look like (5,3)"))


def parse_signed_set(text: str, n: int) -> SignedDistinctSet:
    return SignedDistinctSet(_ints(text, "{}", "signed set must look like {-2,0,1}"), n)


def parse_pair(text: str) -> PartitionPair:
    if "|" not in text:
        raise ValueError(f"pair must look like (5,3)|(2,2,1): {text!r}")
    a, b = text.split("|", 1)
    return PartitionPair(parse_partition(a), parse_partition(b))


def _demo_phi(args: argparse.Namespace) -> int:
    n = args.n
    pair = parse_pair(args.demo)
    pair = PartitionPair(DistinctPartition(pair.first.parts), pair.second)
    print(f"input: lambda={part_str(pair.first)} pi={part_str(pair.second)}"
          f" (weight {pair.weight})")
    ell = len(pair.first)
    print(f"number of parts of lambda: {ell}")
    t, nu = bijections.phi(n, pair)
    print(f"mu = staircase {part_str(staircase(t))} (t={t})")
    print(f"nu = {part_str(nu)}")
    print(f"output weight: {b2_weight((t, nu))}")
    if args.ferrers:
        print("nu as a diagram:")
        print(ferrers(nu))
    back = bijections.phi_inv(n, (t, nu))
    print(f"inverse check: {part_str(back.first)}|{part_str(back.second)}")
    return 0


def _demo_rho(args: argparse.Namespace) -> int:
    n = args.n
    lam = parse_signed_set(args.demo, n)
    print(f"input: lambda={set_str(lam)} (weight {lam.weight})")
    t, nu = bijections.rho(n, lam)
    print(f"t = {t}; mu = run {{{','.join(str(v) for v in range(-n, t + 1))}}}"
          f" (weight {run_weight(n, t)})")
    print(f"nu = {part_str(nu)} (weight {nu.weight})")
    back = bijections.rho_inv(n, (t, nu))
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_psi(args: argparse.Namespace) -> int:
    n = args.n
    mu = parse_signed_set(args.demo, n)
    print(f"input: mu={set_str(mu)} (weight {mu.weight})")
    out = bijections.psi(n, mu)
    print(f"psi(mu) = {part_str(out)} (weight {out.weight})")
    print(f"weight law: {mu.weight} = -{n * (n + 1) // 2} + {out.weight}")
    back = bijections.psi_inv(n, out)
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_tau(args: argparse.Namespace) -> int:
    n = args.n
    lam = parse_signed_set(args.demo, n)
    print(f"input: lambda={set_str(lam)} (weight {lam.weight})")
    out = bijections.tau(n, lam)
    print(f"tau(lambda) = {set_str(out)} (weight {out.weight})")
    back = bijections.tau_inv(n, out)
    print(f"inverse check: {set_str(back)}")
    return 0


def _demo_durfee(args: argparse.Namespace) -> int:
    lam = parse_partition(args.demo)
    print(f"input: lambda={part_str(lam)} (weight {lam.weight},"
          f" Durfee side {lam.durfee_size()})")
    if args.ferrers:
        print(ferrers(lam))
    pair = bijections.durfee_split(lam)
    print(f"mu = {part_str(pair.first)}  nu = {part_str(pair.second)}")
    back = bijections.durfee_join(pair)
    print(f"inverse check: {part_str(back)}")
    return 0


def _demo_nu3(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    pair = parse_pair(args.demo)
    print(f"input: lambda={part_str(pair.first)} pi={part_str(pair.second)}"
          f" (weight {pair.weight})")
    # the map validates the input, which the fold below assumes
    out = bijections.nu3_forward(n, k, pair)
    for part in pair.second.parts:
        s = (part - 1) // 2
        print(f"  split {part} = {s + 1} + {s}: column of height {s + 1},"
              f" row of width {s}")
    nu_star = Partition(bijections._fold(n, pair.second.parts))
    print(f"folded diagram: {part_str(nu_star)}")
    if args.ferrers:
        print(ferrers(nu_star))
    nu_prime = distinct_odd_to_selfconj(out.second)
    print(f"mu = {part_str(out.first)}; self-conjugate residue ="
          f" {part_str(nu_prime)} (Durfee side {nu_prime.durfee_size()})")
    print(f"nu = hooks of residue = {part_str(out.second)}")
    back = bijections.nu3_inverse(n, k, out)
    print(f"inverse check: {part_str(back.first)}|{part_str(back.second)}")
    return 0


_DEMOS = {
    "phi": (_demo_phi, ("n",)),
    "rho": (_demo_rho, ("n",)),
    "psi": (_demo_psi, ("n",)),
    "tau": (_demo_tau, ("n",)),
    "durfee_split": (_demo_durfee, ()),
    "nu3": (_demo_nu3, ("n", "k")),
}


def run(args: argparse.Namespace) -> int:
    """The demo of the bijection args.name, one of the six, checked as its sweep is."""
    demo, needed = _DEMOS[args.name]
    for param in needed:
        if getattr(args, param) is None:
            return _usage_error(f"demo of {args.name} requires --{param}")
    try:
        bijections._check_params(args.name, args.n, args.k, args.weight_cap, args.max_nk)
        return demo(args)
    except (ValueError, QidentError) as exc:
        return _usage_error(str(exc))

"""Fixed reference program that gauges the host's speed during a run.

    python3 perfbench/reference.py

It does the kind of work psibench does, sparse polynomial products over
monomials made of frozen-dataclass symbols in pure Python, without importing
psibench, so no change to psibench can move it.  run.py starts it as a
child like every command and scales its times by how fast this ran.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Symbol:
    name: str
    weight: int


def multiply(f: dict, g: dict, bound: int) -> dict:
    out: dict = {}
    for ma, ca in f.items():
        wa = sum(s.weight * e for s, e in ma)
        for mb, cb in g.items():
            if wa + sum(s.weight * e for s, e in mb) > bound:
                continue
            exps = dict(ma)
            for s, e in mb:
                exps[s] = exps.get(s, 0) + e
            m = tuple(sorted(exps.items(), key=lambda se: se[0].name))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def main() -> None:
    t, u = Symbol("t", 2), Symbol("u", 2)
    f = {(): 1, ((t, 1),): 3, ((u, 1),): 3, ((t, 1), (u, 1)): 1, ((t, 2),): 1}
    acc = {(): 1}
    for _ in range(100):
        acc = multiply(acc, f, 24)
    print(len(acc))


if __name__ == "__main__":
    main()

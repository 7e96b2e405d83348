"""Set-up a fresh process pays: import beetleswarm, build problems and first engines.

Usage: python3 perfbench/setup_probe.py SEED ALGO:PROBLEM[,ALGO:PROBLEM...]

The caller times this whole process from outside.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(seed: int, cells: list[tuple[str, str]]) -> None:
    from beetleswarm import BsoConfig, BsoEngine, PsoConfig, RandomStream, get_problem
    from beetleswarm.core import uniform_in_space

    for algo, pid in cells:
        problem = get_problem(pid)
        if algo == "bas":
            stream = RandomStream(seed)
            problem.evaluate(uniform_in_space(stream, problem.space), stream)
        else:
            BsoEngine(problem, BsoConfig() if algo == "bso" else PsoConfig().to_bso(), seed=seed)


if __name__ == "__main__":
    main(int(sys.argv[1]), [tuple(c.split(":")) for c in sys.argv[2].split(",")])

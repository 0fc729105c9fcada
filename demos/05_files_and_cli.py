"""The file formats and the command-line front end, end to end.

Fields travel as JSON-lines: one {"point": [...], "tuple": [...]} object
per line, an optional leading meta line, complex entries as [re, im]
pairs.  Real-only CSV is accepted for input.  The `symprod` command wraps
the library; this script drives it in-process via cli.main.
"""

import json
import tempfile
from pathlib import Path

from symprod import cli, roots_loop_generator, write_loop_file


def run(argv):
    print(f"$ symprod {' '.join(argv)}")
    code = cli.main(argv)
    print(f"(exit code {code})")
    print()
    return code


def main():
    with tempfile.TemporaryDirectory(prefix="symprod-demo-") as tmp:
        show(Path(tmp))


def show(workdir: Path):
    print("== distances from the shell ==")
    run(["dist", "--a", "1,5", "--b", "2,3"])
    run(["dist", "--a", "1+2i,0", "--b", "0,1+2i"])
    run(["canon", "--t", "3,1,2"])

    print("== lifting a field file ==")
    field = workdir / "field.jsonl"
    rows = [{"meta": {"m": 1, "n": 3, "adjacency": "path"}}]
    for i in range(6):
        rows.append({"point": [i / 6], "tuple": [3.0 - i, 0.5 * i, 1.0]})
    field.write_text("".join(json.dumps(r) + "\n" for r in rows))
    print(f"input: {field}")
    lifted = workdir / "lifted.jsonl"
    run(["lift", "--input", str(field), "--output", str(lifted)])
    print("lifted lines:")
    for line in lifted.read_text().splitlines():
        print(f"  {line}")
    print()

    print("== CSV works for real data ==")
    csv_file = workdir / "field.csv"
    csv_file.write_text("point_0,tuple_0,tuple_1\n0.0,3.0,1.0\n0.5,1.2,2.8\n")
    run(["lift", "--input", str(csv_file), "--output", str(workdir / "from_csv.jsonl")])

    print("== holonomy from flags and from a loop file ==")
    run(["holonomy", "--k", "2", "--steps", "256"])
    loop_file = workdir / "loop.jsonl"
    write_loop_file(loop_file, roots_loop_generator(3, 96))
    run(["holonomy", "--input", str(loop_file)])

    print("== complex input cannot be lifted, by design ==")
    run(["lift", "--input", str(loop_file), "--output", str(workdir / "nope.jsonl")])

    print("== undersampled loops exit with code 3 ==")
    run(["holonomy", "--k", "2", "--steps", "8"])

    print("== the property suite and the benchmark ==")
    run(["lemmas", "--n", "2..4", "--trials", "50"])
    run(["bench", "--n", "2,6", "--reps", "3"])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Counts the lines of src/.

Prints two figures for every file under src/: the raw line count, and the
code count, which leaves out blank lines and lines whose first non-blank
characters are //. With --against REF it also counts src/ as committed at
the git ref REF and prints the delta (this tree minus REF).

Usage: python3 tools/src_lines.py [--against REF]
"""
import argparse
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def counts(texts):
    raw = code = 0
    for text in texts:
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        raw += len(lines)
        code += sum(1 for line in lines
                    if line.strip() and not line.lstrip().startswith("//"))
    return raw, code


def tree_texts():
    for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src")):
        for name in filenames:
            with open(os.path.join(dirpath, name), encoding="utf-8",
                      errors="replace") as f:
                yield f.read()


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout.decode("utf-8", "replace")


def ref_texts(ref):
    for name in git("ls-tree", "-r", "--name-only", ref, "--", "src").splitlines():
        yield git("show", f"{ref}:{name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="also count src/ at this git ref and print the delta")
    args = parser.parse_args()
    rows = [("tree", *counts(tree_texts()))]
    if args.against:
        try:
            ref = git("rev-parse", "--verify", "--short", args.against + "^{commit}").strip()
        except subprocess.CalledProcessError:
            parser.error(f"--against: {args.against} is not a commit")
        rows.append((ref, *counts(ref_texts(ref))))
        rows.append(("delta", rows[0][1] - rows[1][1], rows[0][2] - rows[1][2]))
    print(f"{'src/':<10} {'raw':>7} {'code':>7}")
    for name, raw, code in rows:
        sign = "+" if name == "delta" else ""
        print(f"{name:<10} {raw:>{sign}7,} {code:>{sign}7,}")


if __name__ == "__main__":
    main()

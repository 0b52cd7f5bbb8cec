#!/usr/bin/env python3
"""Project-specific contract lints (CI gate; see README "Correctness tooling").

Checks enforced:

1. relaxed-justification: every use of std::memory_order_relaxed in src/
   must carry a justification comment containing "relaxed:".  The comment
   may sit on the use line itself, or above the *run* of consecutive
   relaxed-using lines it covers (a contiguous block of relaxed telemetry
   loads needs one comment, not twenty).  "Above" means within
   LOOKBACK_LINES lines of the top of the run, so multi-line statements
   and short comment blocks both work.

2. codec-narrowing: every encoder in src/net/codec.h that narrows a batch
   size into the frame's u32 key_count (`static_cast<uint32_t>(<x>.size())`)
   must call detail::check_batch_size() earlier in the same function, so an
   oversized batch throws net::batch_too_large instead of silently
   truncating the count while the payload disagrees.

3. mailbox-ownership: every cross-reactor mailbox operation in src/ — a
   push into a reactor's inbox slot or a try_pop drain — must carry a
   "lane:" ownership comment (same line or above, like the relaxed rule)
   naming which thread is the single producer / single consumer of that
   SPSC ring.  The mailboxes are lock-free only under that ownership
   discipline, so every site states whose lane it runs on.

4. reactor-count-branch: every comparison of the reactor count (nr_)
   against 1 or 2 in src/net/ must carry a "single-loop:" comment (same
   line or above, like the relaxed rule) naming the observable reason the
   one-reactor server behaves differently there.  The server has one
   dispatch path at every reactor count; the comment keeps a second one
   from growing back unnoticed.

5. one-mutation-path: no code in src/net/ or src/persist/ may name
   store::op or store::make_insert / make_erase / make_query.  The server
   and WAL replay apply every mutating batch through net::apply_mutation
   (src/net/mutation.h) as key spans; an op vocabulary there would be a
   second opcode-to-store mapping that replicas and recovery could drift
   from.

6. store-read-tier: no code in src/store/ or src/net/ may call a filter's
   count_contained (through `.` or `->`) or gqf::bulk_count_contained.
   Those helpers launch on the pool and exist for the paper benches; the
   store reads through the backends' serial contains_each/count_each, so
   per_shard and probe_each stay the only places it parallelises.

7. barrier-site: every call of the stop-the-world barrier (`stw(`) in
   src/net/ must carry a "barrier:" comment (same line or above, like the
   relaxed rule) naming why that operation needs a consistent cut of all
   lanes.  Data frames, MAINTAIN included, run on the reactors that own
   their shards; the comment keeps the barrier from creeping back onto the
   data path unnoticed.

Exit status: 0 clean, 1 violations (printed one per line as
file:line: message).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LOOKBACK_LINES = 4

RELAXED_RE = re.compile(r"memory_order_relaxed")
JUSTIFIED_RE = re.compile(r"relaxed:")
NARROW_RE = re.compile(r"key_count\s*=\s*static_cast<uint32_t>\([^)]*\.size\(\)\)")
CHECK_RE = re.compile(r"check_batch_size\s*\(")
# Mailbox call sites: a push into some reactor's inbox slot, or any
# try_pop drain.  Function *definitions* (bool try_pop(...), void
# push(...)) are excluded — the rule covers operations, not signatures.
MAILBOX_OP_RE = re.compile(r"inbox\w*\s*\[[^\]]*\]\s*->\s*push\s*\(|\btry_pop\s*\(")
MAILBOX_DEFN_RE = re.compile(r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:bool|void)\s+\w+\s*\(")
LANE_RE = re.compile(r"lane:")
NR_BRANCH_RE = re.compile(
    r"\bnr_\s*(?:==|!=|<=|>=|<|>)\s*[12]\b|\b[12]\s*(?:==|!=|<=|>=|<|>)\s*nr_\b")
SINGLE_LOOP_RE = re.compile(r"single-loop:")
# stw( calls; park_for_stw and the declaration/definition are not calls.
STW_CALL_RE = re.compile(r"(?<![\w:])stw\s*\(")
BARRIER_RE = re.compile(r"barrier:")
STORE_OP_RE = re.compile(r"\bstore::(?:op|make_(?:insert|erase|query))\b")
POOL_READ_RE = re.compile(r"(?:\.|->)\s*count_contained\s*\(|\bbulk_count_contained\s*\(")
# A new function starts at an unindented definition line ("inline ...",
# "class ...", templates, etc.) — good enough to scope the codec check.
FUNC_START_RE = re.compile(r"^[a-zA-Z/]")


def check_relaxed(path: Path, lines: list[str], errors: list[str]) -> None:
    uses = [i for i, line in enumerate(lines) if RELAXED_RE.search(line)]
    use_set = set(uses)
    for i in uses:
        if JUSTIFIED_RE.search(lines[i]):
            continue
        # Walk to the top of the contiguous run of relaxed-using lines.
        top = i
        while top - 1 in use_set and not JUSTIFIED_RE.search(lines[top - 1]):
            top -= 1
        window = lines[max(0, top - LOOKBACK_LINES):top]
        if any(JUSTIFIED_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: memory_order_relaxed without "
            f'a "relaxed:" justification comment (same line or above the run)'
        )


def check_mailbox_ownership(path: Path, lines: list[str],
                            errors: list[str]) -> None:
    for i, line in enumerate(lines):
        if not MAILBOX_OP_RE.search(line) or MAILBOX_DEFN_RE.match(line):
            continue
        if LANE_RE.search(line):
            continue
        window = lines[max(0, i - LOOKBACK_LINES):i]
        if any(LANE_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: mailbox push/pop without a "
            f'"lane:" ownership comment (same line or above) naming the '
            f"single producer/consumer"
        )


def check_reactor_count_branches(path: Path, lines: list[str],
                                 errors: list[str]) -> None:
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # prose about nr_ is not a branch
        if not NR_BRANCH_RE.search(code) or SINGLE_LOOP_RE.search(line):
            continue
        window = lines[max(0, i - LOOKBACK_LINES):i]
        if any(SINGLE_LOOP_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: reactor-count comparison "
            f'without a "single-loop:" comment (same line or above) naming '
            f"why one reactor differs here"
        )


def check_barrier_sites(path: Path, lines: list[str],
                        errors: list[str]) -> None:
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # prose about stw() is not a call
        if not STW_CALL_RE.search(code) or re.match(r"\s*void\s", code):
            continue
        if BARRIER_RE.search(line):
            continue
        window = lines[max(0, i - LOOKBACK_LINES):i]
        if any(BARRIER_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: stop-the-world call without "
            f'a "barrier:" comment (same line or above) naming why it needs '
            f"a consistent cut of all lanes"
        )


def check_store_ops(path: Path, lines: list[str], errors: list[str]) -> None:
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # prose may name the op vocabulary
        if STORE_OP_RE.search(code):
            errors.append(
                f"{path.relative_to(REPO)}:{i + 1}: store::op vocabulary in "
                f"the server or WAL layer; apply mutations through "
                f"net::apply_mutation as key spans"
            )


def check_store_read_tier(path: Path, lines: list[str],
                          errors: list[str]) -> None:
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # prose may name the bench helpers
        if POOL_READ_RE.search(code):
            errors.append(
                f"{path.relative_to(REPO)}:{i + 1}: pool-launched filter "
                f"read in the store or server; use the backend's serial "
                f"contains_each/count_each"
            )


def check_codec_narrowing(path: Path, lines: list[str],
                          errors: list[str]) -> None:
    func_start = 0
    for i, line in enumerate(lines):
        if FUNC_START_RE.match(line):
            func_start = i
        if NARROW_RE.search(line):
            body = lines[func_start:i]
            if not any(CHECK_RE.search(b) for b in body):
                errors.append(
                    f"{path.relative_to(REPO)}:{i + 1}: key_count narrowing "
                    f"without a preceding check_batch_size() in the same "
                    f"encoder (must throw net::batch_too_large)"
                )


def main() -> int:
    errors: list[str] = []

    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in {".h", ".cpp"}:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        check_relaxed(path, lines, errors)
        check_mailbox_ownership(path, lines, errors)
        if path.parent == REPO / "src" / "net":
            check_reactor_count_branches(path, lines, errors)
            check_barrier_sites(path, lines, errors)
        if path.parent in (REPO / "src" / "net", REPO / "src" / "persist"):
            check_store_ops(path, lines, errors)
        if path.parent in (REPO / "src" / "store", REPO / "src" / "net"):
            check_store_read_tier(path, lines, errors)

    codec = REPO / "src" / "net" / "codec.h"
    check_codec_narrowing(codec, codec.read_text(encoding="utf-8").splitlines(),
                          errors)

    if errors:
        print(f"lint_invariants: {len(errors)} violation(s)")
        for e in errors:
            print(e)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

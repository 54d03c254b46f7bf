#!/usr/bin/env python3
"""Fail on a value exported from lib/ that only tests read.

For each `val v` (or `external v`) in `lib/L/M.mli`, look for a reader
of `L.M.v` in every OCaml source of the repository outside `test/` and
outside `lib/L/M.ml` itself.  A reference counts when its module path
resolves to `L.M`:

  * qualified: `L.M.v`, or `M.v` inside library L;
  * through an alias: `module X = L.M` (or `= M` inside L), then `X.v`;
  * through an open: `open L.M`, `let open L.M in`, `L.M.( ... )` or
    `include L.M`, then a bare `v` anywhere in that file;
  * through an open of the library: `open L`, then `M.v`.

Comments and string literals are stripped first.  An open counts for the
whole file, so opens can only add readers.  A value re-exported through
`include` is not followed: its readers would be missed, and the scan
fails on it rather than passing it silently.

An export with no reader fails the check unless ALLOWLIST names it,
with the reason it stays.  An allowlist entry that is no longer exported
or that has gained a reader fails too, so the list cannot go stale.
The script prints how many exports it examined and fails if that is 0.

The script also fails on a process-global table: a top-level `let` in
a `lib/*/*.ml` file (one starting at column 0) bound to a new hash or
ephemeron table, made by `Hashtbl.create` or by the `create` of a module
built with `Hashtbl.Make`, `Hashtbl.MakeSeeded`, `Ephemeron.K1.Make`,
`Ephemeron.K2.Make`, `Ephemeron.Kn.Make` or `Weak.Make`, directly or
under `ref`.  Such a table outlives every build that fills it; build
state belongs in the value it is derived from or in the build env.  A
table stays only when GLOBAL_TABLES names it with its reason, and an
entry that no longer matches a table fails too.

In the same way it fails on other process-global state: a top-level
`let` in a `lib/*/*.ml` file bound to a `ref`, an `Atomic.make`, or a
recorder, pool or run context (`Recorder.create`, `Pool.create`,
`Ctx.create`, or a bare `create` inside those modules).  A run's state
belongs in the context its caller passes in.  Such a binding stays only
when GLOBAL_STATE names it with its reason; a stale entry fails too.

Run from anywhere: `python3 scripts/export_scan.py`.
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

# Exports kept although nothing outside test/ reads them, each with why.
ALLOWLIST = {
    "Propeller.Wpa.layout_key":
        "the layout-key pins hash it; it is the key WPA's layout cache uses",
    "Propeller.Wpa.layout_params_str":
        "the layout-key pins check the exact parameter bytes the key hashes",
    "Layout.Exttsp.last_merge_count":
        "the ref_exttsp law compares the optimized merge count with the reference's",
    "Ir.Func.pp":
        "the readable IR; Func.feed streams its exact bytes, and the digest laws "
        "compare the two",
    "Uarch.Heatmap.cell":
        "the heat-map column law reads exact bytes per cell; render only shades them",
    "Support.Packed.tuple_hash":
        "pins Packed.Tbl's iteration order to the tuple-keyed Hashtbl it replaced; "
        "the digest epoch (ROADMAP item 7) deletes it",
}

# Process-global tables kept in lib/, each with why.  Both are weak:
# an entry lives exactly as long as the IR function it is keyed by.
GLOBAL_TABLES = {
    "Codegen.exttsp_orders":
        "Ext-TSP block orders by physical function, weak keys; the optimized "
        "build reuses the metadata build's orders, and compile_unit also runs "
        "with no build env",
    "Buildsys.Driver.func_digests":
        "function digests by physical function, weak keys; unit_action_key "
        "also runs with no build env, and the Phase-4 rebuild re-digests "
        "nothing",
}

# Other process-global state kept in lib/, each with why.
GLOBAL_STATE = {
    "Support.Pool.live_pools":
        "the at-exit registry: every pool that spawned domains, so one exit "
        "hook can join them all and a forgotten pool cannot hang exit",
    "Support.Pool.at_exit_installed":
        "the at-exit registry installs its one exit hook once",
    "Obs.Hostclock.last":
        "the host clock's high-water mark, shared by every domain so that "
        "host time never runs backwards",
}

SKIP_DIRS = {"_build", "test", ".git", "_opam"}

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"


def strip(src):
    """Blank out comments (nested), string and quoted-string literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
            else:
                i += 1
            continue
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            out.append('""')
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 32])
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            i = n if j < 0 else j + len(close)
            out.append('""')
            continue
        if c == "'":
            # A character literal ('"', '\n', '\'') must not open a string;
            # a type variable or primed identifier is left alone.
            m = re.match(r"'(\\[^']*|[^\\'])'", src[i:i + 8])
            if m:
                out.append("' '")
                i += len(m.group(0))
                continue
        out.append(c)
        i += 1
    return "".join(out)


def modname(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def libraries():
    """Map library module name -> (dir, set of its module names)."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(ROOT, "lib"))):
        full = os.path.join(ROOT, "lib", d)
        if not os.path.isdir(full):
            continue
        mods = {modname(f) for f in os.listdir(full) if f.endswith((".ml", ".mli"))}
        if mods:
            libs[d[0].upper() + d[1:]] = (full, mods)
    return libs


def canonical(lib, mod):
    """The path of module `mod` of library `lib`: a library whose main
    module shares its name is not wrapped."""
    return (lib,) if mod == lib else (lib, mod)


def exports(libs):
    """Yield (canonical value path, mli file) for each exported value."""
    for lib, (d, mods) in libs.items():
        for mod in sorted(mods):
            mli = os.path.join(d, mod[0].lower() + mod[1:] + ".mli")
            if not os.path.exists(mli):
                continue
            src = strip(open(mli).read())
            stack = []  # submodule names; None inside a module type
            for tok in re.finditer(
                    r"\bmodule\s+type\s+\w+\s*=\s*sig\b"
                    r"|\bmodule\s+([A-Z]\w*)\s*:\s*sig\b"
                    r"|\b(?:sig|object)\b|\bend\b"
                    r"|\b(?:val|external)\s+(" + IDENT + ")", src):
                text = tok.group(0)
                if text.startswith("module type"):
                    stack.append(None)
                elif tok.group(1):
                    stack.append(tok.group(1))
                elif text in ("sig", "object"):
                    stack.append(None)
                elif text == "end":
                    if stack:
                        stack.pop()
                elif None not in stack:
                    yield canonical(lib, mod) + tuple(stack) + (tok.group(2),), mli


def sources():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = [d for d in dirnames if not (rel == "." and d in SKIP_DIRS)
                       and d not in ("_build", ".git")]
        for f in filenames:
            if f.endswith((".ml", ".mli")):
                yield os.path.join(dirpath, f)


class FileRefs:
    """The value paths one source file can reach."""

    def __init__(self, path, libs):
        self.path = path
        self.src = strip(open(path).read())
        rel = os.path.relpath(path, ROOT).split(os.sep)
        self.lib = None
        if rel[0] == "lib" and len(rel) == 3:
            self.lib = rel[1][0].upper() + rel[1][1:]
        self.libs = libs
        self.aliases = {}
        self.opens = []
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + r")\b(?!\s*\()",
                             self.src):
            self.aliases[m.group(1)] = m.group(2).split(".")
        opened = set()
        for pat in (r"\bopen!?\s+(" + MODPATH + ")",
                    r"\binclude\s+(" + MODPATH + ")",
                    r"\b(" + MODPATH + r")\.[(\[{]"):
            opened.update(m.group(1) for m in re.finditer(pat, self.src))
        for o in sorted(opened):
            self.opens.extend(self.resolve(o.split(".")))
        self.qualified = set()
        for m in re.finditer(r"(?<![\w.'])(" + MODPATH + r")\.(" + IDENT + ")", self.src):
            for p in self.resolve(m.group(1).split(".")):
                self.qualified.add(p + (m.group(2),))
        self.bare = set(re.findall(r"(?<![\w.'])" + IDENT, self.src))

    def resolve(self, parts, seen=0):
        """Every canonical module path that `parts` may denote here."""
        head, rest = parts[0], list(parts[1:])
        out = []
        if head in self.aliases and seen < 8:
            out += self.resolve(self.aliases[head] + rest, seen + 1)
        if self.lib and head in self.libs[self.lib][1]:
            out.append(canonical(self.lib, head) + tuple(rest))
        for o in self.opens:
            lib = o[0]
            if len(o) == 1 and lib in self.libs and head in self.libs[lib][1]:
                out.append(canonical(lib, head) + tuple(rest))
            else:
                out.append(o + tuple(parts))
        if head in self.libs:
            if rest and rest[0] in self.libs[head][1]:
                out.append(canonical(head, rest[0]) + tuple(rest[1:]))
            else:
                out.append((head,) + tuple(rest))
        return out

    def reads(self, vpath):
        if vpath in self.qualified:
            return True
        return vpath[:-1] in self.opens and vpath[-1] in self.bare


TABLE_MAKERS = r"(?:Hashtbl\.Make(?:Seeded)?|Ephemeron\.K(?:1|2|n)\.Make|Weak\.Make)"


def lib_sources(libs):
    """Map (library, module, ml file) -> stripped source of each lib/ .ml."""
    srcs = {}
    for lib, (d, mods) in libs.items():
        for mod in sorted(mods):
            ml = os.path.join(d, mod[0].lower() + mod[1:] + ".ml")
            if os.path.exists(ml):
                srcs[(lib, mod, ml)] = strip(open(ml).read())
    return srcs


def global_tables(srcs):
    """Yield (canonical value path, ml file) for each top-level table."""
    # Table modules may be made in one file and used in another.
    tables = {"Hashtbl"}
    for src in srcs.values():
        tables.update(re.findall(r"\bmodule\s+([A-Z]\w*)\s*=\s*" + TABLE_MAKERS, src))
    binding = re.compile(
        r"^let\s+(" + IDENT + r")\s*(?::[^=]*)?=\s*(?:ref\s*\(?\s*)?"
        r"(?:[A-Z]\w*\.)*([A-Z]\w*)\.create\b", re.M)
    for (lib, mod, ml), src in sorted(srcs.items()):
        for m in binding.finditer(src):
            if m.group(2) in tables:
                yield canonical(lib, mod) + (m.group(1),), ml


STATE_MODULES = {"Recorder", "Pool", "Ctx"}


def global_state(srcs):
    """Yield (canonical value path, ml file) for each top-level ref,
    atomic, recorder, pool or context."""
    binding = re.compile(
        r"^let\s+(" + IDENT + r")\s*(?::[^=]*)?=\s*(?:(ref|Atomic\.make)\b|"
        r"(?:[A-Z]\w*\.)*([A-Z]\w*)\.create\b|(create)\b)", re.M)
    for (lib, mod, ml), src in sorted(srcs.items()):
        for m in binding.finditer(src):
            if (m.group(2) or m.group(3) in STATE_MODULES
                    or (m.group(4) and mod in STATE_MODULES)):
                yield canonical(lib, mod) + (m.group(1),), ml


def check_globals(found, allowlist, what, advice):
    """Print one global-binding verdict; return the number of failures."""
    names = {".".join(v) for v, _ in found}
    bad = [(".".join(v), os.path.relpath(ml, ROOT)) for v, ml in found
           if ".".join(v) not in allowlist]
    stale = sorted(n for n in allowlist if n not in names)
    print("export_scan: %d process-global %ss in lib/, %d allowlisted"
          % (len(found), what, len(allowlist)))
    for name, ml in bad:
        print("  process-global %s: %s (%s)" % (what, name, ml), file=sys.stderr)
    for n in stale:
        print("  stale %s allowlist entry: %s (no such binding)" % (what, n),
              file=sys.stderr)
    if bad or stale:
        print("export_scan: FAIL: %d process-global %ss, %d stale allowlist entries; %s"
              % (len(bad), what, len(stale), advice), file=sys.stderr)
    return len(bad) + len(stale)


def main():
    libs = libraries()
    srcs = lib_sources(libs)
    tables = list(global_tables(srcs))
    table_names = {v for v, _ in tables}
    state = [(v, ml) for v, ml in global_state(srcs) if v not in table_names]
    global_failures = check_globals(
        tables, GLOBAL_TABLES, "table",
        "keep build state in the value it derives from or in the build env")
    global_failures += check_globals(
        state, GLOBAL_STATE, "state binding",
        "keep run state in the context the caller passes in")
    exported = list(exports(libs))
    if not exported:
        print("export_scan: FAIL: examined 0 exports; the scan is broken", file=sys.stderr)
        return 1
    files = [FileRefs(p, libs) for p in sources()]
    missing, stale = [], []
    for vpath, mli in exported:
        own = os.path.splitext(mli)[0] + ".ml"
        used = any(f.path != own and f.path != mli and f.reads(vpath) for f in files)
        name = ".".join(vpath)
        if not used and name not in ALLOWLIST:
            missing.append((name, os.path.relpath(mli, ROOT)))
        elif used and name in ALLOWLIST:
            stale.append(name + " (has a reader outside test/)")
    names = {".".join(v) for v, _ in exported}
    stale += [n + " (not exported)" for n in sorted(ALLOWLIST) if n not in names]
    print("export_scan: examined %d exports in %d interfaces, %d allowlisted"
          % (len(exported), len({m for _, m in exported}), len(ALLOWLIST)))
    for name, mli in missing:
        print("  no reader outside test/: %s (%s)" % (name, mli), file=sys.stderr)
    for s in stale:
        print("  stale allowlist entry: %s" % s, file=sys.stderr)
    if missing or stale:
        print("export_scan: FAIL: %d test-only exports, %d stale allowlist entries; "
              "delete or unexport the value, or allowlist it with its reason"
              % (len(missing), len(stale)), file=sys.stderr)
        return 1
    return 1 if global_failures else 0


if __name__ == "__main__":
    sys.exit(main())

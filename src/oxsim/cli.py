"""Command-line front end: evaluate / sweep / optimize.

Config, grid, constraints, and profile files are sectioned key = value text
(INI). Unknown sections or keys are hard errors. `reports` lays out every
output; each is written atomically (temp file + rename) as UTF-8 with a
RunManifest; identical inputs give byte-identical files (SOURCE_DATE_EPOCH
stamps a time).
"""
import gc
import io
import itertools
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import ConfigError, EvaluationError, OxsimError

# The manifest digests come from the builtin SHA-256, so a run does not load
# OpenSSL, as hashlib does at import, to hash two small files. Its module is
# chosen by version, so no process searches sys.path for one that cannot be there.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

# `_cli.<name>` reads a name of the package's table (`oxsim._NAMES`), which
# loads its module on first use, so --version, --help and a usage error load
# none of them, `evaluate` neither `grid` nor `dse`, `sweep` not `dse` and
# `optimize` not `grid`. A name, once resolved, is a global here, and the
# code reads each on the module object `_cli`, so a wrapper set on it
# (perfbench --trace 1) is the function that runs.
_cli = sys.modules[__name__]
_package = sys.modules[__package__]


def __getattr__(name: str):
    if name not in _package._MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_package, name)
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# Field annotation, as `_section` spells it (a class by its name, any other
# type by its repr) -> parser of one INI value; an optional field (`X | None`)
# parses as X. Fields of any other type cannot be set from a file.
_PARSERS = {
    "int": int,
    "float": _finite,
    "str": str,
    "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split()),
    "tuple[float, ...]": lambda raw: tuple(_finite(x) for x in raw.split()),
}


def _deterministic_timestamp() -> str:
    """UTC time of SOURCE_DATE_EPOCH (default 0), which must be an integer
    number of seconds in the years 1 to 9999."""
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        stamp = time.gmtime(int(raw))
        if 1 <= stamp.tm_year <= 9999:
            return time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp)
    except (ValueError, OverflowError, OSError):
        pass
    raise ConfigError(f"SOURCE_DATE_EPOCH={raw!r} must be an integer number of seconds "
                      f"since 1970 that falls in the years 1 to 9999")


def _sha256_text(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def _parse_ini(text: str, source) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of INI text, read as configparser's strict
    ConfigParser reads it with `#`/`;` inline comments, no interpolation, no
    default section and case-sensitive keys (README gives the rules). A
    malformed line is a ConfigError that names `source` and the line."""
    sections: dict[str, dict[str, list[str]]] = {}
    keys = None  # the current section's {key: value lines}
    lines = None  # the value lines of the section's last key
    indent = 0  # the indentation of that key's line
    # split as configparser splits, at "\n" only
    for number, line in enumerate(text.split("\n"), start=1):
        # a comment runs from a `#` or `;` that starts the line or follows whitespace
        cut = next((i for i, char in enumerate(line)
                    if char in "#;" and (i == 0 or line[i - 1].isspace())), None)
        clean = line[:cut].strip()
        if not clean:
            if lines is not None and cut is None:
                lines.append("")
            continue
        where = f"{source}, line {number}"
        line_indent = len(line) - len(line.lstrip())
        if lines is not None and line_indent > indent:
            lines.append(clean)
            continue
        indent = line_indent
        end = clean.rfind("]")
        if clean[0] == "[" and end > 1:
            name = clean[1:end]
            if name in sections:
                raise ConfigError(f"{where}: section [{name}] is given twice")
            keys = sections[name] = {}
            lines = None
        elif keys is None:
            raise ConfigError(f"{where}: {clean!r} comes before any [section]")
        else:
            # a key ends at the first `=` or `:`
            cut = min(i for i in (clean.find("="), clean.find(":"), len(clean)) if i >= 0)
            key = clean[:cut].rstrip()
            if not key or cut == len(clean):
                raise ConfigError(f"{where}: {clean!r} is not a key = value line")
            if key in keys:
                raise ConfigError(f"{where}: key {key!r} is given twice in [{name}]")
            lines = keys[key] = [clean[cut + 1:].strip()]
    return {name: {key: "\n".join(value).rstrip() for key, value in keys.items()}
            for name, keys in sections.items()}


def _read_ini(path: Path, allowed_sections: set[str], missing: str | None = None):
    """(the {section: {key: value}} of INI file `path`, the SHA-256 of the
    bytes they were parsed from). A file that cannot be read or decoded is a
    ConfigError that names it; `missing` replaces the message for an absent one."""
    try:
        text, data = _cli.read_input(path, ConfigError)
    except FileNotFoundError:
        raise ConfigError(missing or f"config file not found: {path}") from None
    sections = _parse_ini(text, path)
    for section in sections:
        if section not in allowed_sections:
            raise ConfigError(
                f"{path}: unknown section [{section}]; allowed: "
                f"{', '.join(sorted(allowed_sections))}"
            )
    return sections, sha256(data).hexdigest()


def _section(sections: dict, section: str, cls, source) -> dict:
    """Keyword arguments for Record `cls` from one INI section.

    Each key must name a field of `cls` whose annotation, read from the
    class's own annotations, `_PARSERS` knows, and its value must parse as
    that type; otherwise the ConfigError names the file, the section and the key.
    """
    where = f"{source} [{section}]"
    # `type(t) is type`, not isinstance: 3.10 counts `tuple[int, ...]` as a type
    kinds = {name: (t.__name__ if type(t) is type else repr(t)).removesuffix(" | None")
             for name, t in cls.__annotations__.items()}
    kinds = {name: kind for name, kind in kinds.items() if kind in _PARSERS}
    out = {}
    for key, raw in sections.get(section, {}).items():
        if key not in kinds:
            raise ConfigError(f"{where}: unknown key {key!r}; allowed: "
                              f"{', '.join(sorted(kinds))}")
        try:
            out[key] = _PARSERS[kinds[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r} must be {kinds[key]}: {exc}") from exc
    return out


def _build(where: str, make, *args, **kwargs):
    """Call `make`; a value it rejects becomes a ConfigError that names `where`."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _chip(sections: dict, source) -> "ChipConfig":
    cls = _cli.ChipConfig
    return _build(f"{source} [chip]", cls, **_section(sections, "chip", cls, source))


def _path(option: str, value: str) -> Path:
    """The path an option gives; an empty value, which Path reads as the
    working directory, is a ConfigError that names the option."""
    if not value:
        raise ConfigError(f"option {option} is empty")
    return Path(value)


def load_profile(spec: str | None) -> "CalibrationProfile":
    """A built-in profile name, or a profile file with [profile]/[overrides]."""
    if spec is None:
        return _cli.get_profile("paper-default")
    builtin_names = sorted(_cli.builtin_profiles())
    if spec in builtin_names:
        return _cli.get_profile(spec)
    path = _path("--profile", spec)
    sections, _ = _read_ini(path, {"profile", "overrides", "notes"},
                            f"profile {spec!r} is neither a built-in ({', '.join(builtin_names)}) "
                            f"nor a file")
    name = _section(sections, "profile", _cli.CalibrationProfile, path).get("name", path.stem)
    # a report names its profile, so a file may not pass for a built-in
    if name in builtin_names:
        raise ConfigError(f"{path} [profile]: name {name!r} is a built-in profile's; "
                          f"a profile file must have a name of its own")
    # the name is checked alone first, then with the overrides, so an error
    # names the section it is about
    _build(f"{path} [profile]", _cli.CalibrationProfile, name=name)
    overrides = _section(sections, "overrides", _cli.TechParams, path)
    _build(f"{path} [overrides]", _cli.CalibrationProfile, name=name, overrides=overrides)
    return _build(f"{path} [notes]", _cli.CalibrationProfile, name=name, overrides=overrides,
                  notes=sections.get("notes", {}))


def load_run_inputs(config_path: str | None, profile_spec: str | None):
    """Resolve (ChipConfig, TechParams, profile, config digest) from CLI arguments."""
    profile = load_profile(profile_spec)
    tech = _cli.apply_profile(_cli.default_tech_params(), profile)
    if config_path is None:
        cfg = _cli.ChipConfig()
        return cfg, tech, profile, _sha256_text(repr(cfg))
    path = _path("--config", config_path)
    sections, config_hash = _read_ini(path, {"chip", "tech"})
    cfg = _chip(sections, path)
    tech = _build(f"{path} [tech]", _cli.apply_overrides, tech,
                  _section(sections, "tech", _cli.TechParams, path))
    return cfg, tech, profile, config_hash


def _atomic_write(path: Path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`.
    The temp file is created exclusively, under a name of this process and
    write (its id and the first number free), so no other write shares it;
    `path` ends 0o644 whatever the umask, and a failed write leaves no temp file."""
    for number in itertools.count(1):
        tmp = path.parent / f"{path.name}.{os.getpid()}.{number}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            break
        except FileExistsError:
            pass
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # the umask masked the mode os.open gave
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_out(path: Path, text: str) -> None:
    """`_atomic_write`, making `path`'s directory first. An OSError from either
    is a ConfigError that names `path` and the OS's reason, and the directory
    that could not be made, never the temp file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.filename}: {exc.strerror or exc}") from exc
    try:
        _atomic_write(path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _topology(spec: str) -> tuple[list, str]:
    """(the layers of `--topology`, the SHA-256 of the bytes they were parsed from)."""
    layers, data = _cli.load_topology(_path("--topology", spec))
    return layers, sha256(data).hexdigest()


def cmd_evaluate(args) -> int:
    out_dir = Path(".") if args.out is None else _path("--out", args.out)
    cfg, tech, profile, config_hash = load_run_inputs(args.config, args.profile)
    layers, topology_hash = _topology(args.topology)
    try:
        report = _cli.evaluate(layers, cfg, tech)
    except OxsimError:
        raise
    except Exception as exc:
        raise EvaluationError(str(exc)) from exc

    manifest = _cli.RunManifest(__version__, "evaluate", config_hash, profile.name,
                                topology_hash, args.timestamp)
    _write_out(out_dir / "report.json",
               _cli.dump_json(_cli.json_payload(cfg, report, manifest._asdict())))
    _write_out(out_dir / "report.csv", _cli.csv_text([_cli.flat_row(cfg, report)], manifest))
    print(
        f"ips={report.ips:.1f} ips_per_w={report.ips_per_w:.1f} "
        f"power_w={report.power_w:.3f} area_mm2={report.area_mm2:.2f} "
        f"(rows={cfg.rows} cols={cfg.cols} cores={cfg.cores} batch={cfg.batch}, "
        f"profile={profile.name})"
    )
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'report.csv'}")
    return 0


def _over_chip(option: str, value: str | None, section: str, cls):
    """(a SweepGrid or Constraints, its manifest digest): one section over a
    [chip] template, from the file that `option` names, or `cls()` hashed by
    its repr when the option is absent.

    The template is first checked by `cls` alone (every other field at its
    default), so an error about the template names [chip].
    """
    if value is None:
        record = cls()
        return record, _sha256_text(repr(record))
    path = _path(option, value)
    sections, digest = _read_ini(path, {section, "chip"})
    template, fields = _chip(sections, path), _section(sections, section, cls, path)
    _build(f"{path} [chip]", cls, template=template)
    return _build(f"{path} [{section}]", cls, template=template, **fields), digest


def cmd_sweep(args) -> int:
    out_path = Path("sweep.csv") if args.out is None else _path("--out", args.out)
    _, tech, profile, _ = load_run_inputs(None, args.profile)
    grid, grid_hash = _over_chip("--grid", args.grid, "grid", _cli.SweepGrid)
    layers, topology_hash = _topology(args.topology)
    results = _cli.sweep(grid, layers, tech)
    manifest = _cli.RunManifest(__version__, "sweep", grid_hash, profile.name, topology_hash,
                                args.timestamp)
    rows = [_cli.flat_row(cfg, report) for cfg, report in results]
    _write_out(out_path, _cli.csv_text(rows, manifest))
    print(f"evaluated {len(rows)} configs; wrote {out_path}")
    return 0


def cmd_optimize(args) -> int:
    out_path = Path("optimize_audit.json") if args.out is None else _path("--out", args.out)
    _, tech, profile, _ = load_run_inputs(None, args.profile)
    cons, cons_hash = _over_chip("--constraints", args.constraints, "constraints",
                                 _cli.Constraints)
    layers, topology_hash = _topology(args.topology)

    result = _cli.optimize(layers, tech, cons)
    timeline = result.report.timeline
    if not cons.hides(timeline):
        share, eps = 100 * timeline.t_program_exposed / timeline.t_total, 100 * cons.hiding_eps
        # three significant digits, or the fewest more that tell the share from hiding_eps
        digits = next((n for n in range(3, 17) if f"{share:#.{n}g}" != f"{eps:#.{n}g}"), 17)
        print(f"warning: batch {result.config.batch} leaves {share:#.{digits}g}% of the batch "
              f"time as exposed programming, over hiding_eps ({eps:#.{digits}g}%)",
              file=sys.stderr)
    manifest = _cli.RunManifest(__version__, "optimize", cons_hash, profile.name,
                                topology_hash, args.timestamp)
    _write_out(out_path, _cli.dump_json(_cli.audit_payload(result, manifest)))
    cfg = result.config
    print(
        f"chosen: rows={cfg.rows} cols={cfg.cols} batch={cfg.batch} "
        f"input_sram_mb={cfg.sram_input_mb} cores={cfg.cores}"
    )
    print(
        f"ips={result.report.ips:.1f} ips_per_w={result.report.ips_per_w:.1f} "
        f"power_w={result.report.power_w:.3f} area_mm2={result.report.area_mm2:.2f}"
    )
    print(f"wrote {out_path}")
    return 0


_TOPOLOGY_HELP = "topology CSV path or bundled name (resnet50_v15, toy3)"
_PROFILE_HELP = "calibration profile name or file"

# command -> (its help, its function, {option: help}, the options it requires)
_COMMANDS = {
    "evaluate": ("evaluate one configuration on a network", cmd_evaluate, {
        "--config": "chip config file ([chip]/[tech] sections)",
        "--topology": _TOPOLOGY_HELP,
        "--profile": _PROFILE_HELP,
        "--out": "output directory (default: .)",
    }, ("--topology",)),
    "sweep": ("evaluate a Cartesian grid of configurations", cmd_sweep, {
        "--grid": "grid file ([grid]/[chip] sections)",
        "--topology": _TOPOLOGY_HELP,
        "--profile": _PROFILE_HELP,
        "--out": "output CSV path (default: sweep.csv)",
    }, ("--grid", "--topology")),
    "optimize": ("run the batch -> SRAM -> array flow", cmd_optimize, {
        "--constraints": "constraints file ([constraints]/[chip])",
        "--topology": _TOPOLOGY_HELP,
        "--profile": _PROFILE_HELP,
        "--out": "audit JSON path (default: optimize_audit.json)",
    }, ("--topology",)),
}
_HELP = ("-h", "--help")


def _usage(command: str | None = None) -> str:
    """The text --help prints: every command, or one command's options."""
    if command is None:
        lines = [f"usage: oxsim {{{','.join(_COMMANDS)}}} --option value ...",
                 "       oxsim --version", "",
                 "Coherent optical crossbar accelerator simulator", "", "commands:"]
        lines += [f"  {name:<10}{entry[0]}" for name, entry in _COMMANDS.items()]
        lines += ["", "oxsim COMMAND --help lists a command's options."]
    else:
        summary, _, options, required = _COMMANDS[command]
        lines = [f"usage: oxsim {command} --option value ...", "", summary, "",
                 "options (each --opt value or --opt=value, at most once):"]
        lines += [f"  {name:<15}{text}{' (required)' if name in required else ''}"
                  for name, text in options.items()]
    return "\n".join(lines)


def parse_args(argv: list[str]):
    """The namespace of a command line: `func` and one field per option of
    its command, None where not given. --version and --help return the text
    to print instead. A usage error is a ConfigError that names the argument."""
    if not argv:
        raise ConfigError(f"missing command; expected one of {', '.join(_COMMANDS)}")
    command, *words = argv
    if command == "--version" and not words:
        return f"oxsim {__version__}"
    if command in _HELP and not words:
        return _usage()
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{', '.join(_COMMANDS)}, or --version or --help alone")
    _, func, options, required = _COMMANDS[command]
    values = {}
    words = iter(words)
    for word in words:
        if word in _HELP:
            return _usage(command)
        name, eq, value = word.partition("=")
        if name not in options:
            raise ConfigError(f"{command}: unknown option {name!r}; allowed: "
                              f"{', '.join(options)}")
        if name in values:
            raise ConfigError(f"{command}: option {name} is given twice")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-"):
                raise ConfigError(f"{command}: option {name} needs a value (write "
                                  f"{name}=VALUE for one that starts with '-')")
        values[name] = value
    for name in required:
        if name not in values:
            raise ConfigError(f"{command}: option {name} is required")
    return SimpleNamespace(func=func, **{name[2:]: values.get(name) for name in options})


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # not when redirected to a StringIO
        # the summary is UTF-8, as every output file is, whatever the locale
        sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # --version or --help
            print(args)
            return 0
        # a bad SOURCE_DATE_EPOCH fails before any evaluation or output
        args.timestamp = _deterministic_timestamp()
        return args.func(args)
    except OxsimError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    """Process entry point (the `oxsim` script and `python -m oxsim.cli`):
    `main()` on sys.argv with the cyclic garbage collector off, then exit
    with its code after `gc.freeze()`, so the interpreter's teardown runs no
    collection over what the run left. `main` is the in-process API and
    leaves the collector as it found it. This is exact because:

    - every output is written, closed and renamed (`_atomic_write`) before
      `main` returns;
    - atexit handlers and the flush of the standard streams still run, as
      `sys.exit` raises SystemExit;
    - a run makes cyclic garbage once, not per point: its one mapping memo
      (a `Network` and the `RuntimeStats` that refer back to it), which
      lives for the whole run anyway; reference counting frees everything
      else.

    `main` prints into a StringIO; once it returns, what it printed goes to
    stdout as UTF-8 in one write and one flush (every command prints after
    its files are written, so nothing is delayed). A failed write (a full
    disk, a closed pipe) is one stderr line and exit 1, as an unwritable
    `--out` is; stdout then goes to os.devnull, so the flush at exit has
    nothing left to fail on. Any exception from `main` propagates.
    """
    gc.disable()
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main()
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), stdout
    # sys.stdout is None when the process starts with stdout closed
    if stdout is not None:
        try:
            stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
            stdout.write(printed)
            stdout.flush()
        except OSError as exc:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stdout.fileno())
            print(f"{ConfigError.label}: cannot write stdout: {exc.strerror or exc}",
                  file=sys.stderr)
            code = ConfigError.exit_code
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

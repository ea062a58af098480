"""Plain-text artifact files: certificates, value grids, w_max reports.

Certificate format (one `key = value` per line, `#` comments):

    format = certificate-v1
    name = quadcopter_fig8
    axis = main
    n_states = 6
    n_inputs = 2
    q = 0.1, 1.0, ...
    r = 0.01, 0.0001
    decay_rate = 0.5
    dist_weight = 0.1
    cert_eig_max = -9.0e-07        # top eigenvalue of the closed-loop check
    w_max = 3.5                    # absent until a bound is certified
    level = 2.45
    k_row_0 = ...                  # gain rows, comma separated
    p_row_0 = ...                  # Lyapunov matrix rows

Value grids are the `x1,x2,v` CSV that ValueGrid.to_csv formats (row-major
over a uniform grid).  The CLI has each axis's job format its grid's text
where the grid was solved, and its write pass writes that text unchanged.
Floats are written with repr, so a fixed pipeline reproduces
byte-identical files.
"""

from __future__ import annotations

import numpy as np

from ..clf_synth import ClfCertificate, ClfParams


class FileFormatError(Exception):
    """An artifact file does not match its documented format."""


def _fmt(values):
    return ", ".join(repr(float(v)) for v in np.asarray(values, dtype=float).ravel())


def write_certificate(path, name, axis, cert, cert_eig_max):
    k = np.asarray(cert.k, dtype=float)
    p = np.asarray(cert.p, dtype=float)
    n, m = k.shape[1], k.shape[0]
    lines = [
        "format = certificate-v1",
        f"name = {name}",
        f"axis = {axis}",
        f"n_states = {n}",
        f"n_inputs = {m}",
        f"q = {_fmt(cert.params.q_diag(n))}",
        f"r = {_fmt(cert.params.r_diag(m))}",
        f"decay_rate = {repr(float(cert.params.decay_rate))}",
        f"dist_weight = {repr(float(cert.params.dist_weight))}",
        f"cert_eig_max = {repr(float(cert_eig_max))}",
    ]
    if cert.w_max is not None:
        lines.append(f"w_max = {repr(float(cert.w_max))}")
        lines.append(f"level = {repr(float(cert.level))}")
    for i in range(m):
        lines.append(f"k_row_{i} = {_fmt(k[i])}")
    for i in range(n):
        lines.append(f"p_row_{i} = {_fmt(p[i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_kv(path):
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}: expected key = value, got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def read_certificate(path):
    """Returns (name, axis, ClfCertificate, cert_eig_max)."""
    kv = _parse_kv(path)
    if kv.get("format") != "certificate-v1":
        raise FileFormatError(f"{path}: not a certificate-v1 file")

    def field(key, parse=float):
        try:
            return parse(kv[key])
        except KeyError:
            raise FileFormatError(f"{path}: missing field {key!r}") from None
        except ValueError:
            raise FileFormatError(f"{path}: field {key!r} holds a non-numeric value: "
                                  f"{kv[key]!r}") from None

    def row(key, length):
        values = field(key, lambda text: [float(t) for t in text.split(",")])
        if len(values) != length:
            raise FileFormatError(f"{path}: field {key!r} has {len(values)} entries, "
                                  f"expected {length}")
        return values

    n = field("n_states", int)
    m = field("n_inputs", int)
    params = ClfParams(q=np.array(row("q", n)), r=np.array(row("r", m)),
                       decay_rate=field("decay_rate"), dist_weight=field("dist_weight"))
    k = np.array([row(f"k_row_{i}", n) for i in range(m)])
    p = np.array([row(f"p_row_{i}", n) for i in range(n)])
    cert_eig_max = field("cert_eig_max")
    cert = ClfCertificate(k=k, p=p, params=params)
    if "w_max" in kv:
        cert.set_disturbance_bound(field("w_max"))
    return kv.get("name", ""), kv.get("axis", "main"), cert, cert_eig_max


def write_wmax_report(path, name, entries):
    """entries: list of dicts with axis, w_max, level, grid_file."""
    lines = ["format = wmax-v2", f"name = {name}"]
    for e in entries:
        ax = e["axis"]
        lines.append(f"w_max_{ax} = {repr(float(e['w_max']))}")
        lines.append(f"level_{ax} = {repr(float(e['level']))}")
        lines.append(f"value_grid_{ax} = {e['grid_file']}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_wmax_report(path):
    kv = _parse_kv(path)
    if kv.get("format") != "wmax-v2":
        raise FileFormatError(f"{path}: not a wmax-v2 file")
    axes = sorted(k.split("_", 2)[2] for k in kv if k.startswith("w_max_"))
    entries = []
    for ax in axes:
        try:
            entries.append({
                "axis": ax,
                "w_max": float(kv[f"w_max_{ax}"]),
                "level": float(kv[f"level_{ax}"]),
                "grid_file": kv.get(f"value_grid_{ax}", ""),
            })
        except KeyError as exc:
            raise FileFormatError(f"{path}: missing field {exc}") from None
    return kv.get("name", ""), entries


def metrics_block(metrics):
    """Render the metrics dict as the stdout block the CLI prints."""
    lines = ["[metrics]"]
    for key, val in metrics.items():
        if isinstance(val, bool):
            lines.append(f"{key} = {str(val).lower()}")
        elif isinstance(val, (int, np.integer)):
            lines.append(f"{key} = {int(val)}")
        elif isinstance(val, float):
            lines.append(f"{key} = {repr(val)}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines)

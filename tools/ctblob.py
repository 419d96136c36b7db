#!/usr/bin/env python3
"""Inspects sp::io wire blobs without deserializing them.

Prints the header (magic, version, kind, params fingerprint) and payload
size of each blob file, plus kind-specific detail where the prologue is
cheap to parse (CkksParams fields, ciphertext part count). Useful for
checking what a stored/captured blob actually is before feeding it to a
deserializer, and for debugging fingerprint mismatches between client and
server.

Usage:
  tools/ctblob.py BLOB [BLOB ...]

Exit status: 0 if every file parses as a well-formed header, 1 otherwise.
The layout contract lives in docs/WIRE.md; this script tracks wire version 3.
"""

import struct
import sys

MAGIC = 0x42575053  # "SPWB" little-endian
SUPPORTED_VERSION = 3

KIND_NAMES = {
    1: "CkksParams",
    2: "RnsPoly",
    3: "Plaintext",
    4: "Ciphertext",
    5: "PublicKey",
    6: "SecretKey",
    7: "KSwitchKey",
    8: "GaloisKeys",
    9: "retired(Plan)",  # no current decoder accepts it
    10: "RotationSteps",
    11: "TrainingState",
}


def inspect(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 16:
        raise ValueError(f"{len(data)} bytes is too short for an SPWB header")
    magic, version, kind, fingerprint = struct.unpack_from("<IHHQ", data, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic 0x{magic:08x} (not an SPWB blob)")
    kind_name = KIND_NAMES.get(kind, f"unknown({kind})")
    print(f"{path}:")
    print(f"  magic        SPWB")
    print(f"  version      {version}"
          + ("" if version == SUPPORTED_VERSION else "  (UNSUPPORTED by this script)"))
    print(f"  kind         {kind_name}")
    print(f"  fingerprint  0x{fingerprint:016x}")
    print(f"  total bytes  {len(data)} ({len(data) - 16} payload)")
    if version != SUPPORTED_VERSION:
        return
    if kind == 1 and len(data) >= 32:
        poly_degree, nbits = struct.unpack_from("<QQ", data, 16)
        q_bits = struct.unpack_from(f"<{nbits}i", data, 32)
        off = 32 + 4 * nbits
        special_bits, = struct.unpack_from("<i", data, off)
        scale, noise = struct.unpack_from("<dd", data, off + 4)
        print(f"  poly_degree  {poly_degree}")
        print(f"  q_bits       {list(q_bits)}")
        print(f"  special_bits {special_bits}")
        print(f"  scale        {scale:g}")
        print(f"  noise_stddev {noise:g}")
    elif kind == 4 and len(data) >= 20:
        parts, = struct.unpack_from("<I", data, 16)
        print(f"  parts        {parts}")
        if len(data) >= 33:
            ring_n, q_count = struct.unpack_from("<QI", data, 20)
            print(f"  ring n       {ring_n}")
            print(f"  q_count      {q_count}")
    elif kind == 11 and len(data) >= 102:
        # Fixed-layout checkpoint prologue (see train/checkpoint.h).
        optimizer, = struct.unpack_from("<B", data, 16)
        features, batch, iterations = struct.unpack_from("<iii", data, 17)
        lr, momentum, beta1, beta2, adam_eps = struct.unpack_from("<5d", data, 29)
        sigmoid_degree, = struct.unpack_from("<i", data, 69)
        sigmoid_range, = struct.unpack_from("<d", data, 73)
        invsqrt_degree, = struct.unpack_from("<i", data, 81)
        vhat_max, = struct.unpack_from("<d", data, 85)
        matvec_n1, = struct.unpack_from("<i", data, 93)
        iteration, = struct.unpack_from("<I", data, 97)
        flags, = struct.unpack_from("<B", data, 101)
        state = [name for bit, name in ((1, "velocity"), (2, "m"), (4, "v"))
                 if flags & bit]
        print(f"  optimizer    {'Adam' if optimizer == 1 else 'SgdMomentum'}")
        print(f"  shape        {batch} x {features}, {iterations} iterations planned")
        print(f"  lr           {lr:g}  (momentum {momentum:g}, "
              f"beta1 {beta1:g}, beta2 {beta2:g}, eps {adam_eps:g})")
        print(f"  sigmoid      deg {sigmoid_degree} on [-{sigmoid_range:g}, "
              f"{sigmoid_range:g}]")
        print(f"  invsqrt      deg {invsqrt_degree} on [0, {vhat_max:g}]")
        print(f"  matvec_n1    {matvec_n1 if matvec_n1 else 'auto'}")
        print(f"  iteration    {iteration}")
        print(f"  state cts    weights" + "".join(f", {s}" for s in state))


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) >= 2 else 1
    status = 0
    for path in argv[1:]:
        try:
            inspect(path)
        except (OSError, ValueError, struct.error) as e:
            print(f"{path}: ERROR: {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

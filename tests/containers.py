"""The CRC32 trailer that every dataset, checkpoint and embedding file ends
in, written here from the format's definition rather than through `xmal`,
so format tests can build valid files by hand and damage a file's body
while keeping its checksum right."""

import contextlib
import io
import struct
import zlib


def sealed(body: bytes) -> bytes:
    """`body` followed by its CRC32 trailer: a container file whose checksum holds."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def body(blob: bytes) -> bytes:
    """A container file without its 4-byte CRC32 trailer."""
    return blob[:-4]


@contextlib.contextmanager
def sealed_file(path: str):
    """A buffer to write a container's body into; on exit the body and its
    trailer are written to `path`."""
    buf = io.BytesIO()
    yield buf
    with open(path, "wb") as f:
        f.write(sealed(buf.getvalue()))

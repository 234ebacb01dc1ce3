"""Byte-level mutations of a file: one to three bytes inserted, deleted or
replaced, mostly with the bytes JSON and the model writer are made of."""

from hypothesis import strategies as st

# structural bytes, digits, a minus and a slash, whitespace, an escape, or
# any byte at all
BYTES = st.one_of(st.sampled_from(list(b'[]{},:"0123456789-/ \t\n\\x')), st.integers(0, 255))
EDITS = ("insert", "delete", "replace")


@st.composite
def mutated(draw, text: bytes) -> bytes:
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(EDITS))
        if edit == "insert":
            data.insert(at, draw(BYTES))
        elif at < len(data):
            if edit == "delete":
                del data[at]
            else:
                data[at] = draw(BYTES)
    return bytes(data)

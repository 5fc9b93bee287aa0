"""MDA main memory model: decode, crosspoint banks, the memory."""

from .bank import CrosspointBank
from .decoder import AddressDecoder, DecodedLine
from .mda_memory import MdaMemory

__all__ = [
    "AddressDecoder",
    "CrosspointBank",
    "DecodedLine",
    "MdaMemory",
]

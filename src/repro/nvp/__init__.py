"""Nonvolatile-processor substrate.

A behavioral model of the paper's modified 8051-class NVP: a simple
five-stage pipeline with nonvolatile flip-flops, a bit-selectable
approximate ALU and approximate data memory, and a backup/restore
engine whose energy follows the STT-RAM retention model. An 8051-class
interpreter, its assembler and its reference programs
(:mod:`repro.nvp.mcu`, :mod:`repro.nvp.asm`, :mod:`repro.nvp.programs`)
run real instruction streams: the tests check the instruction mixes'
CPI, which turns ticks into committed instructions, against them.

The RTL of the original evaluation is replaced by instruction- and
energy-level accounting (see DESIGN.md for the substitution argument);
the numerical *semantics* of bit-reduced execution are reproduced
exactly as Section 8.1 describes them.
"""

from .isa import InstructionClass, InstructionMix, DEFAULT_MIX
from .energy_model import EnergyModel
from .datapath import ApproximateALU, alu_reduce_bits
from .memory_approx import memory_truncate_bits
from .pipeline import PipelineModel
from .backup import BackupEngine, BackupRecord
from .processor import NonvolatileProcessor
from .asm import Instruction, Operand, Program, assemble
from .mcu import MCU8051, MCUState, RunOutcome

__all__ = [
    "InstructionClass",
    "InstructionMix",
    "DEFAULT_MIX",
    "EnergyModel",
    "ApproximateALU",
    "alu_reduce_bits",
    "memory_truncate_bits",
    "PipelineModel",
    "BackupEngine",
    "BackupRecord",
    "NonvolatileProcessor",
    "Instruction",
    "Operand",
    "Program",
    "assemble",
    "MCU8051",
    "MCUState",
    "RunOutcome",
]

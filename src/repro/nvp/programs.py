"""Reference assembly programs for the functional simulator.

Small, testbench-style kernels written in the :mod:`repro.nvp.asm`
subset and validated against numpy golden models. These play the role
of the paper's compiled C testbenches at the instruction level: they
exercise loads/stores, the accumulator ALU, loop control, and — under
reduced ``ac_bits`` — the approximate datapath.

Data convention: inputs are preloaded into XRAM and outputs written
back to XRAM, like the paper's framework ("the inputs are generated as
ROM arrays, and the outputs are generated through GPIO").
"""

from __future__ import annotations

import numpy as np

from .._validation import check_int_in_range
from ..errors import ProcessorError
from .asm import Program, assemble

__all__ = [
    "vector_add_program",
    "saturating_sum_program",
    "threshold_count_program",
    "scale_q8_program",
    "sad_program",
    "golden_vector_add",
    "golden_saturating_sum",
    "golden_threshold_count",
    "golden_sad",
]

#: XRAM layout used by every program here.
INPUT_A = 0
INPUT_B = 256
OUTPUT = 512


def vector_add_program(length: int) -> Program:
    """``out[i] = (a[i] + b[i]) & 0xFF`` for ``i`` in ``[0, length)``.

    R0 holds the loop counter; the three DPTR reloads per element keep
    the program single-pointer like real 8051 code.
    """
    check_int_in_range(length, "length", 1, 255, exc=ProcessorError)
    return assemble(
        f"""
        MOV  R0, #{length}      ; loop counter
        MOV  R1, #0             ; element index
    loop:
        ; A <- a[index]
        MOV  DPTR, #{INPUT_A}
        MOV  A, R1
        ADD  A, #0              ; (through the datapath)
        CLR  C
        MOV  R2, A              ; save index copy
        MOV  DPTR, #{INPUT_A}
        MOV  A, R2
        JZ   load_a             ; dptr += index
    bump_a:
        INC  DPTR
        DEC  A
        JNZ  bump_a
    load_a:
        MOVX A, @DPTR
        MOV  R3, A              ; R3 = a[index]
        ; A <- b[index]
        MOV  DPTR, #{INPUT_B}
        MOV  A, R2
        JZ   load_b
    bump_b:
        INC  DPTR
        DEC  A
        JNZ  bump_b
    load_b:
        MOVX A, @DPTR
        ADD  A, R3              ; the kernel's add
        MOV  R4, A
        ; out[index] <- A
        MOV  DPTR, #{OUTPUT}
        MOV  A, R2
        JZ   store
    bump_o:
        INC  DPTR
        DEC  A
        JNZ  bump_o
    store:
        MOV  A, R4
        MOVX @DPTR, A
        INC  R1
        DJNZ R0, loop
        HALT
        """
    )


def saturating_sum_program(length: int) -> Program:
    """``out[0] = min(255, sum(a[0:length]))`` — carry-based saturation."""
    check_int_in_range(length, "length", 1, 255, exc=ProcessorError)
    return assemble(
        f"""
        MOV  R0, #{length}
        MOV  DPTR, #{INPUT_A}
        MOV  R2, #0             ; running sum
    loop:
        MOVX A, @DPTR
        ADD  A, R2
        JNC  keep               ; no overflow
        MOV  A, #255            ; saturate
        MOV  R2, A
        SJMP finish
    keep:
        MOV  R2, A
        INC  DPTR
        DJNZ R0, loop
    finish:
        MOV  DPTR, #{OUTPUT}
        MOV  A, R2
        MOVX @DPTR, A
        HALT
        """
    )


def threshold_count_program(length: int, threshold: int) -> Program:
    """``out[0] = count(a[i] >= threshold)`` — a USAN-style counter."""
    check_int_in_range(length, "length", 1, 255, exc=ProcessorError)
    check_int_in_range(threshold, "threshold", 0, 255, exc=ProcessorError)
    return assemble(
        f"""
        MOV  R0, #{length}
        MOV  R2, #0             ; count
        MOV  DPTR, #{INPUT_A}
    loop:
        MOVX A, @DPTR
        CLR  C
        CJNE A, #{threshold}, check
        SJMP hit                ; equal counts as >=
    check:
        JC   miss               ; A < threshold
    hit:
        INC  R2
    miss:
        INC  DPTR
        DJNZ R0, loop
        MOV  DPTR, #{OUTPUT}
        MOV  A, R2
        MOVX @DPTR, A
        HALT
        """
    )


def scale_q8_program(length: int, gain_q8: int) -> Program:
    """``out[i] = (a[i] * gain_q8) >> 8`` — a tiff2bw-style fixed-point MAC."""
    check_int_in_range(length, "length", 1, 255, exc=ProcessorError)
    check_int_in_range(gain_q8, "gain_q8", 0, 255, exc=ProcessorError)
    return assemble(
        f"""
        MOV  R0, #{length}
        MOV  R1, #0             ; index
    loop:
        MOV  DPTR, #{INPUT_A}
        MOV  A, R1
        JZ   load
    bump_i:
        INC  DPTR
        DEC  A
        JNZ  bump_i
    load:
        MOVX A, @DPTR
        MOV  B, #{gain_q8}
        MUL  AB                 ; B:A = a[i] * gain
        MOV  A, B               ; keep the high byte (>> 8)
        MOV  R4, A
        MOV  DPTR, #{OUTPUT}
        MOV  A, R1
        JZ   store
    bump_o:
        INC  DPTR
        DEC  A
        JNZ  bump_o
    store:
        MOV  A, R4
        MOVX @DPTR, A
        INC  R1
        DJNZ R0, loop
        HALT
        """
    )


def golden_vector_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numpy golden model of :func:`vector_add_program`."""
    return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) & 0xFF


def golden_saturating_sum(a: np.ndarray) -> int:
    """Numpy golden model of :func:`saturating_sum_program`.

    Mirrors the program's early-exit: it saturates the moment a
    running-sum add overflows.
    """
    total = 0
    for value in np.asarray(a, dtype=np.int64):
        total += int(value)
        if total > 255:
            return 255
    return total


def golden_threshold_count(a: np.ndarray, threshold: int) -> int:
    """Numpy golden model of :func:`threshold_count_program`."""
    return int(np.count_nonzero(np.asarray(a) >= threshold))


def sad_program(length: int) -> Program:
    """``out[0:2] = sum(|a[i] - b[i]|)`` (16-bit, little endian).

    The sum-of-absolute-differences at the heart of JPEG motion
    estimation, written with an ``ACALL``/``RET`` subroutine computing
    each absolute difference — exercising the internal-RAM stack.
    """
    check_int_in_range(length, "length", 1, 255, exc=ProcessorError)
    return assemble(
        f"""
        MOV  R0, #{length}
        MOV  R1, #0             ; element index
        MOV  R5, #0             ; sum low byte
        MOV  R6, #0             ; sum high byte
    loop:
        MOV  DPTR, #{INPUT_A}
        MOV  A, R1
        JZ   load_a
    bump_a:
        INC  DPTR
        DEC  A
        JNZ  bump_a
    load_a:
        MOVX A, @DPTR
        MOV  R3, A
        MOV  DPTR, #{INPUT_B}
        MOV  A, R1
        JZ   load_b
    bump_b:
        INC  DPTR
        DEC  A
        JNZ  bump_b
    load_b:
        MOVX A, @DPTR
        MOV  R4, A
        ACALL absdiff           ; A <- |R3 - R4|
        ADD  A, R5              ; 16-bit accumulate
        MOV  R5, A
        JNC  no_carry
        INC  R6
    no_carry:
        INC  R1
        DJNZ R0, loop
        MOV  DPTR, #{OUTPUT}
        MOV  A, R5
        MOVX @DPTR, A
        INC  DPTR
        MOV  A, R6
        MOVX @DPTR, A
        HALT
    absdiff:                    ; |R3 - R4| -> A
        MOV  A, R3
        CLR  C
        SUBB A, R4
        JNC  abs_done
        MOV  A, R4
        CLR  C
        SUBB A, R3
    abs_done:
        RET
        """
    )


def golden_sad(a, b) -> int:
    """Numpy golden model of :func:`sad_program` (16-bit wrap)."""
    import numpy as _np

    a = _np.asarray(a, dtype=_np.int64)
    b = _np.asarray(b, dtype=_np.int64)
    return int(_np.abs(a - b).sum()) & 0xFFFF

"""Battery-less wearable camera: incidental capture + RAC refinement.

The intro's motivating deployment: a batteryless camera buffers frames
faster than the NVP can process them. Incidental computing produces
*some* (low-quality) output for old frames instead of abandoning them;
when an incidental output looks "interesting" (here: strong edge
content), recompute-and-combine passes lift its quality without ever
interrupting the processing of new data.

Run:  python examples/wearable_camera.py
"""

from repro import AnnotatedProgram, IncidentalExecutive, RecomputeAndCombine
from repro.core.pragmas import IncidentalPragma, RecoverFromPragma
from repro.core.recompute import schedule_from_trace
from repro.energy import standard_profile
from repro.kernels import SusanEdgesKernel, frame_sequence
from repro.quality import psnr


def main() -> None:
    kernel = SusanEdgesKernel()
    program = AnnotatedProgram(
        kernel,
        [
            IncidentalPragma("src", 3, 8, "linear"),
            RecoverFromPragma("frame"),
        ],
    )

    trace = standard_profile(2)  # a sporadic, spiky day
    frames = frame_sequence(10, 8, seed=11)
    executive = IncidentalExecutive(
        program, trace, frames, frame_period_ticks=15_000, seed=3
    )
    result = executive.run()
    print("Camera session:", result.sim.describe())
    print(
        f"frames completed: {result.frames_completed} "
        f"(incidental: {result.frames_completed_incidentally}), "
        f"abandoned: {result.frames_abandoned}"
    )

    scores = executive.frame_quality(result)
    if not scores:
        print("No frame completed on this trace segment; try a longer trace.")
        return

    # "Interestingness": edge mass of the (possibly low-quality) output.
    def interest(score):
        image = frames[score.frame_id % len(frames)]
        return int(kernel.run_exact(image).sum())

    candidate = max(scores, key=interest)
    image = frames[candidate.frame_id % len(frames)]
    print(
        f"\nmost interesting frame: {candidate.frame_id} "
        f"(incidental quality {candidate.psnr_db:.1f} dB)"
    )

    # recompute(buf, 4) + assemble(buf, higherbits), applied over the
    # same harvested-power budget (Section 8.5).
    schedule = schedule_from_trace(trace, minbits=4)
    rac = RecomputeAndCombine(kernel, minbits=4, seed=5)
    outcome = rac.run(image, passes=4, schedule=schedule)

    print("recompute-and-combine passes:")
    for index, quality in enumerate(outcome.psnr_per_pass, start=1):
        print(f"  pass {index}: PSNR {quality:5.1f} dB")
    reference = kernel.run_exact(image)
    print(
        f"final refined output: {psnr(reference, outcome.final_output):.1f} dB "
        f"(mean stored precision {outcome.final_precision.mean_bits():.1f} bits)"
    )


if __name__ == "__main__":
    main()

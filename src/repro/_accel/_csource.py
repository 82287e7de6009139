"""C source for the batched replay kernels.

The two functions here port the per-tick reference loops —
:meth:`repro.system.simulator.NVPSystemSimulator.run` under a
fixed-bit allocator, and the same loop driving an
:class:`~repro.core.executive.IncidentalExecutive` — to C, with the
per-tick constants hoisted and provably idle outage spans skipped.
They are the only fast path of either model: a grid replays them over
many lanes, a single task over one. They are compiled with
``-ffp-contract=off`` and without ``-ffast-math``, so every
floating-point operation happens in the same order, width and rounding
mode as the Python interpreter performs it (both are IEEE-754 binary64
on every platform we target). The conformance suites
(``tests/test_batch_equivalence.py``, ``tests/test_engine_equivalence.py``,
``tests/test_executive_equivalence.py``) arbitrate: any divergence from
the reference simulators is a bug here.

Port rules:

* ``a * b * c`` stays ``(a * b) * c`` — C's left-associativity matches
  Python's, and ``-ffp-contract=off`` forbids FMA contraction.
* Python ``int(x)`` on a non-negative float is the C ``(int64_t)`` cast
  (both truncate toward zero).
* ``np.searchsorted(a, v)`` (side='left') is a plain lower bound.
* Python ``min(a, b)`` is ``(a <= b) ? a : b`` — returns the *first*
  operand on ties, which matters when the operands are signed zeros.
* ``int / int`` true division is ``(double)a / (double)b``.

Error handling: the kernels never raise — they return a nonzero status
and the caller re-runs that lane through the reference loop, which
raises the :class:`~repro.errors.SimulationError` the configuration
deserves.
"""

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* np.searchsorted(a, v, side='left'): first index with a[i] >= v. */
static int64_t lower_bound(const int64_t *a, int64_t len, int64_t v)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* Status codes shared by both kernels. Codes 2-4 map onto the three
 * SimulationError cases of the replay loops; >= 5 are capacity
 * overflows of the caller-provided output buffers (never expected for
 * real traces -- the caller falls back to the reference loop). */
#define ST_OK               0
#define ST_RESTORE_SHORT    2
#define ST_BACKUP_SHORT     3
#define ST_RUN_DRAINED      4
#define ST_BACKUP_OVERFLOW  5
#define ST_EXP_OVERFLOW     6
#define ST_FRAME_OVERFLOW   7
#define ST_LANEDONE_OVERFLOW 8

/* ---------------------------------------------------------------------------
 * Fixed-bit replay (port of the reference loop under FixedBitAllocator).
 *
 * dp: 0=dt 1=capacity 2=leak_frac 3=floor_e 4=off_e 5=run_e 6=reserve
 *     7=restore_cost 8=start_level 9=instr_per_tick 10=run_energy_per_tick
 * ip: 0=n 1=n_nonsticky 2=n_income 3=bits 4=simd_width 5=has_direct
 *     6=backup_cap
 * iout: 0=committed 1=on_ticks 2=n_backups 3=n_restores
 * dout: 0=run_energy 1=total_backup_energy 2=total_restore_energy
 * ------------------------------------------------------------------------- */
int64_t repro_fixed_replay(
    const double *conv, const double *direct, const uint8_t *sticky,
    const int64_t *nonsticky, const int64_t *income,
    const double *dp, const int64_t *ip, const double *backup_cost,
    int16_t *bit_sched, int16_t *lane_sched, int64_t *backup_ticks,
    int64_t *iout, double *dout)
{
    const int64_t n = ip[0], n_nonsticky = ip[1], n_income = ip[2];
    const int64_t bits = ip[3], simd = ip[4], has_direct = ip[5];
    const int64_t backup_cap = ip[6];
    const double dt = dp[0], capacity = dp[1], leak_frac = dp[2];
    const double floor_e = dp[3], off_e = dp[4], run_e = dp[5];
    const double reserve = dp[6], restore_cost = dp[7], start_level = dp[8];
    const double instr_per_tick = dp[9], run_e_tick = dp[10];

    double e = 0.0, residue = 0.0, run_energy = 0.0;
    double total_backup = 0.0, total_restore = 0.0;
    int64_t t = 0, on_ticks = 0, committed = 0;
    int64_t n_backups = 0, n_restores = 0;
    int running = 0;

    while (t < n) {
        if (!running) {
            /* OFF: charge, leak, off-drain, then restore if possible. */
            if (e == 0.0 && sticky[t]) {
                int64_t j = lower_bound(nonsticky, n_nonsticky, t);
                t = (j < n_nonsticky) ? nonsticky[j] : n;
                continue;
            }
            double c = conv[t];
            if (c == 0.0) {
                /* Zero-income decay span. */
                int64_t j = lower_bound(income, n_income, t);
                int64_t span_end = (j < n_income) ? income[j] : n;
                while (t < span_end) {
                    double loss = e * leak_frac * dt + floor_e;
                    if (loss > e) loss = e;
                    e -= loss;
                    if (e >= off_e) {
                        e -= off_e;
                        t += 1;
                    } else {
                        e = 0.0;
                        t += 1;
                        break;
                    }
                }
                continue;
            }
            double incoming = c * dt;
            double room = capacity - e;
            e += (incoming < room) ? incoming : room;
            if (e > 0.0) {
                double loss = e * leak_frac * dt + floor_e;
                if (loss > e) loss = e;
                e -= loss;
            }
            if (e >= off_e) e -= off_e; else e = 0.0;
            if (e >= start_level) {
                /* RESTORE occupies this tick. */
                if (restore_cost > e + 1e-12) return ST_RESTORE_SHORT;
                e -= restore_cost;
                if (e < 0.0) e = 0.0;
                total_restore += restore_cost;
                n_restores += 1;
                running = 1;
                on_ticks += 1;
            }
            t += 1;
            continue;
        }

        /* RUN: charge (bypass channel when dual), leak, then either a
         * power-emergency backup or one executed tick. */
        double c = has_direct ? direct[t] : conv[t];
        if (c > 0.0) {
            double incoming = c * dt;
            double room = capacity - e;
            e += (incoming < room) ? incoming : room;
        }
        if (e > 0.0) {
            double loss = e * leak_frac * dt + floor_e;
            if (loss > e) loss = e;
            e -= loss;
        }
        if (e - run_e < reserve) {
            int64_t b0 = bits;
            double cost = backup_cost[b0];
            while (b0 > 1 && cost > e) {
                b0 -= 1;
                cost = backup_cost[b0];
            }
            if (cost > e + 1e-12) return ST_BACKUP_SHORT;
            e -= cost;
            if (e < 0.0) e = 0.0;
            total_backup += cost;
            if (n_backups >= backup_cap) return ST_BACKUP_OVERFLOW;
            backup_ticks[n_backups] = t;
            n_backups += 1;
            running = 0;
            on_ticks += 1;
            t += 1;
            continue;
        }
        if (run_e <= e) e -= run_e; else return ST_RUN_DRAINED;
        double exact = instr_per_tick + residue;
        int64_t ipl = (int64_t)exact;
        residue = exact - (double)ipl;
        committed += ipl;
        run_energy += run_e_tick;
        bit_sched[t] = (int16_t)bits;
        lane_sched[t] = (int16_t)simd;
        on_ticks += 1;
        t += 1;
    }

    iout[0] = committed;
    iout[1] = on_ticks;
    iout[2] = n_backups;
    iout[3] = n_restores;
    dout[0] = run_energy;
    dout[1] = total_backup;
    dout[2] = total_restore;
    return ST_OK;
}

/* ---------------------------------------------------------------------------
 * Incidental-executive replay (port of the reference loop driving an
 * IncidentalExecutive, including the executive's frame bookkeeping).
 *
 * Lane-cost tables are indexed by the lane tuple: widths 1-4, bits 1-8
 * per lane, laid out width-major (offsets 0, 8, 72, 584; 4680 entries).
 * power_mw[i]   = run_power_uw(tuple) * mix_weight
 * tick_e[i]     = power_mw[i] * dt       (dt == 1e-4, the run-energy literal)
 * backup_raw[i] = backup_energy_uj(tuple)
 * reserve_tab[i]= backup_raw[i] * (1 + backup_margin)
 *
 * dp: 0=dt 1=capacity 2=leak_frac 3=floor_e 4=off_e 5=start_level
 *     6=restore_cost 7=comfort 8=reserve_level 9=horizon_denom
 *     10=instr_per_tick
 * ip: 0=n 1=n_nonsticky 2=has_direct 3=cur_minb 4=cur_maxb 5=lane_minb
 *     6=lane_maxb 7=max_pending 8=enable_simd 9=ac_enabled 10=period
 *     11=n_elements 12=instr_per_element 13=recover_frame 14=rollforward
 *     15=buf_cap 16=max_frames 17=backup_cap 18=exp_cap
 * element_bits: max_frames * n_elements int8, zeroed by the caller.
 * frame_completed: max_frames int64, -1 = not completed.
 * exposures: exp_cap * 3 int64 rows of (frame_id, outage, elements_done)
 *            in chronological append order.
 * unstarted: max_frames int64 scratch.
 * iout: 0..3=committed[0..3] 4=on_ticks 5=idle_instructions 6=arrived
 *       7=n_backups 8=n_restores 9=n_exposures
 * dout: 0=run_energy 1=total_backup_energy 2=total_restore_energy
 * ------------------------------------------------------------------------- */

static const int64_t TUP_OFF[4] = {0, 8, 72, 584};

static int64_t tup_idx(const int64_t *lanes, int64_t w)
{
    int64_t idx = TUP_OFF[w - 1];
    int64_t mul = 1;
    for (int64_t i = 0; i < w; i++) {
        idx += (lanes[i] - 1) * mul;
        mul *= 8;
    }
    return idx;
}

/* IncidentalExecutive._fill: paint element_bits[start:stop] and return
 * the advanced done mark. ne_f is (double)ne, exact for any real frame. */
static double fill_row(int8_t *row, int64_t ne, double ne_f,
                       double done, double elements, int64_t bits)
{
    int64_t start = (int64_t)done;
    double nd = done + elements;
    double new_done = (ne_f <= nd) ? ne_f : nd; /* min(float(ne), done+elements) */
    int64_t stop = (new_done < ne_f) ? (int64_t)new_done : ne;
    if (stop > start) {
        for (int64_t k = start; k < stop; k++) row[k] = (int8_t)bits;
    }
    return new_done;
}

int64_t repro_exec_replay(
    const double *conv, const double *direct, const uint8_t *sticky,
    const int64_t *nonsticky,
    const double *power_mw, const double *tick_e,
    const double *backup_raw, const double *reserve_tab,
    const double *dp, const int64_t *ip,
    int16_t *bit_sched, int16_t *lane_sched, int64_t *backup_ticks,
    int8_t *element_bits, int64_t *frame_completed,
    uint8_t *frame_incid, uint8_t *frame_abandoned,
    int64_t *exposures, int64_t *unstarted,
    int64_t *iout, double *dout)
{
    const int64_t n = ip[0], n_nonsticky = ip[1], has_direct = ip[2];
    const int64_t cur_minb = ip[3], cur_maxb = ip[4];
    const int64_t lane_minb = ip[5], lane_maxb = ip[6];
    const int64_t max_pending = ip[7], enable_simd = ip[8];
    const int64_t ac_enabled = ip[9], period = ip[10];
    const int64_t ne = ip[11], ipe = ip[12];
    const int64_t recover_frame = ip[13], rollforward = ip[14];
    const int64_t buf_cap = ip[15], max_frames = ip[16];
    const int64_t backup_cap = ip[17], exp_cap = ip[18];
    const double dt = dp[0], capacity = dp[1], leak_frac = dp[2];
    const double floor_e = dp[3], off_e = dp[4], start_level = dp[5];
    const double restore_cost = dp[6], comfort = dp[7];
    const double reserve_level = dp[8], horizon_denom = dp[9];
    const double instr_per_tick = dp[10];
    const double ne_f = (double)ne;

    /* Executive bookkeeping state (all bounded by construction). */
    int64_t buf_fid[4]; int64_t buf_done[4]; int64_t buf_len = 0;
    int64_t ld_fid[8]; double ld_done[8]; int64_t ld_len = 0;
    int64_t lane_frames[3]; int64_t n_lane_frames = 0;
    int64_t unstarted_len = 0, arrived = 0;
    int64_t current = -1; double current_done = 0.0;
    int64_t idle = 0;
    int64_t last_backup_tick = 0; int has_last_backup = 0;
    int64_t idle_instr = 0, n_exp = 0;
    int64_t committed[4] = {0, 0, 0, 0};

    double e = 0.0, residue = 0.0, run_energy = 0.0;
    double total_backup = 0.0, total_restore = 0.0;
    int64_t t = 0, on_ticks = 0, n_backups = 0, n_restores = 0;
    int running = 0;

    while (t < n) {
        if (!running) {
            /* OFF: charge, leak, off-drain, restore when possible. */
            if (e == 0.0 && sticky[t]) {
                int64_t j = lower_bound(nonsticky, n_nonsticky, t);
                t = (j < n_nonsticky) ? nonsticky[j] : n;
                continue;
            }
            double c = conv[t];
            if (c > 0.0) {
                double incoming = c * dt;
                double room = capacity - e;
                e += (incoming < room) ? incoming : room;
            }
            if (e > 0.0) {
                double loss = e * leak_frac * dt + floor_e;
                if (loss > e) loss = e;
                e -= loss;
            }
            if (e >= off_e) e -= off_e; else e = 0.0;
            if (e >= start_level) {
                /* RESTORE occupies this tick. */
                if (restore_cost > e + 1e-12) return ST_RESTORE_SHORT;
                e -= restore_cost;
                if (e < 0.0) e = 0.0;
                total_restore += restore_cost;
                n_restores += 1;
                /* notify_restore: advance arrivals, record exposures. */
                {
                    int64_t due = t / period + 1;
                    while (arrived < due) {
                        if (arrived >= max_frames) return ST_FRAME_OVERFLOW;
                        unstarted[unstarted_len++] = arrived;
                        arrived += 1;
                    }
                }
                if (has_last_backup) {
                    int64_t outage = t - last_backup_tick;
                    for (int64_t q = 0; q < buf_len; q++) {
                        if (n_exp >= exp_cap) return ST_EXP_OVERFLOW;
                        exposures[3 * n_exp] = buf_fid[q];
                        exposures[3 * n_exp + 1] = outage;
                        exposures[3 * n_exp + 2] = buf_done[q];
                        n_exp += 1;
                    }
                    has_last_backup = 0;
                }
                running = 1;
                on_ticks += 1;
            }
            t += 1;
            continue;
        }

        /* RUN: charge (bypass channel when dual), leak, allocate, then
         * either a power-emergency backup or one executed tick. */
        double c = has_direct ? direct[t] : conv[t];
        if (c > 0.0) {
            double incoming = c * dt;
            double room = capacity - e;
            e += (incoming < room) ? incoming : room;
        }
        if (e > 0.0) {
            double loss = e * leak_frac * dt + floor_e;
            if (loss > e) loss = e;
            e -= loss;
        }

        /* -- IncidentalExecutive.allocate, inlined ---------------------- */
        if (arrived * period <= t) {
            int64_t due = t / period + 1;
            while (arrived < due) {
                if (arrived >= max_frames) return ST_FRAME_OVERFLOW;
                unstarted[unstarted_len++] = arrived;
                arrived += 1;
            }
        }
        if (current < 0) {
            /* _pick_current: roll-forward priority, newest first. */
            int64_t candidate = -1;
            if (rollforward && unstarted_len > 0)
                candidate = unstarted[unstarted_len - 1];
            if (candidate < 0 && buf_len > 0) {
                int64_t bi = 0;
                for (int64_t q = 1; q < buf_len; q++)
                    if (buf_fid[q] > buf_fid[bi]) bi = q;
                current = buf_fid[bi];
                current_done = (double)buf_done[bi];
                for (int64_t q = bi; q < buf_len - 1; q++) {
                    buf_fid[q] = buf_fid[q + 1];
                    buf_done[q] = buf_done[q + 1];
                }
                buf_len -= 1;
            } else {
                if (candidate < 0 && !rollforward && unstarted_len > 0)
                    candidate = unstarted[unstarted_len - 1];
                if (candidate >= 0) {
                    unstarted_len -= 1;
                    current = candidate;
                    current_done = 0.0;
                } else {
                    current = -1;
                    current_done = 0.0;
                }
            }
        }
        idle = (current < 0);

        /* ApproximationControlUnit.power_budget_uw */
        double budget = (c > 0.0) ? c : 0.0;
        if (e > comfort) budget = budget + (e - comfort) / horizon_denom;
        else if (e < reserve_level) budget = 0.0;

        /* Current-lane bits (bits_for_budget with no base lanes). */
        int64_t lanes[4];
        int64_t cur;
        if (!ac_enabled) {
            cur = cur_maxb;
        } else {
            cur = cur_minb;
            for (int64_t b = cur_maxb; b >= cur_minb; b--) {
                if (power_mw[b - 1] <= budget) { cur = b; break; }
            }
        }
        lanes[0] = cur;
        int64_t n_lanes = 1;

        /* Incidental SIMD lanes: split the surplus fairly. */
        int64_t pending = enable_simd ? buf_len : 0;
        if (pending > max_pending) pending = max_pending;
        if (e < reserve_level) pending = 0;
        if (pending) {
            double current_power = power_mw[cur - 1];
            double share = budget - current_power;
            if (share < 0.0) share = 0.0;
            share = share / (double)pending;
            if (!ac_enabled) {
                for (int64_t q = 0; q < pending; q++) lanes[n_lanes++] = lane_maxb;
            } else {
                for (int64_t q = 0; q < pending; q++) {
                    double base_power = power_mw[tup_idx(lanes, n_lanes)];
                    int64_t chosen = lane_minb;
                    for (int64_t b = lane_maxb; b >= lane_minb; b--) {
                        lanes[n_lanes] = b;
                        double total = power_mw[tup_idx(lanes, n_lanes + 1)];
                        if (total - base_power <= share) { chosen = b; break; }
                    }
                    lanes[n_lanes++] = chosen;
                }
            }
        }

        /* lane_frames = sorted(buffered, reverse=True)[: len(lanes)-1],
         * set before narrowing exactly as the reference does. */
        {
            int64_t tmp[4];
            for (int64_t q = 0; q < buf_len; q++) tmp[q] = buf_fid[q];
            for (int64_t q = 1; q < buf_len; q++) { /* insertion sort desc */
                int64_t v = tmp[q];
                int64_t w = q - 1;
                while (w >= 0 && tmp[w] < v) { tmp[w + 1] = tmp[w]; w -= 1; }
                tmp[w + 1] = v;
            }
            int64_t k = n_lanes - 1;
            if (k > buf_len) k = buf_len;
            n_lane_frames = k;
            for (int64_t q = 0; q < k; q++) lane_frames[q] = tmp[q];
        }

        /* Reserve-driven lane narrowing. */
        int64_t ti = tup_idx(lanes, n_lanes);
        double tick_energy = tick_e[ti];
        double res = reserve_tab[ti];
        while (n_lanes > 1 && e - tick_energy < res) {
            n_lanes -= 1;
            ti = tup_idx(lanes, n_lanes);
            tick_energy = tick_e[ti];
            res = reserve_tab[ti];
        }

        if (e - tick_energy < res) {
            /* Power emergency: back up, narrowing lane 0 if short. */
            double cost = backup_raw[ti];
            while (lanes[0] > 1 && cost > e) {
                lanes[0] -= 1;
                cost = backup_raw[tup_idx(lanes, n_lanes)];
            }
            if (cost > e + 1e-12) return ST_BACKUP_SHORT;
            e -= cost;
            if (e < 0.0) e = 0.0;
            total_backup += cost;
            if (n_backups >= backup_cap) return ST_BACKUP_OVERFLOW;
            backup_ticks[n_backups] = t;
            n_backups += 1;

            /* notify_backup: fold adopted lanes back into the buffer. */
            for (int64_t k = 0; k < ld_len; k++) {
                int64_t fid = ld_fid[k];
                int64_t bi = -1;
                for (int64_t q = 0; q < buf_len; q++)
                    if (buf_fid[q] == fid) { bi = q; break; }
                if (bi < 0) continue;
                if (recover_frame) {
                    memset(element_bits + fid * ne, 0, (size_t)ne);
                    buf_done[bi] = 0;
                } else if ((int64_t)ld_done[k] > buf_done[bi]) {
                    buf_done[bi] = (int64_t)ld_done[k];
                }
            }
            ld_len = 0;
            n_lane_frames = 0;
            if (current >= 0 && frame_completed[current] < 0) {
                int64_t kept;
                if (recover_frame) {
                    memset(element_bits + current * ne, 0, (size_t)ne);
                    kept = 0;
                } else {
                    kept = (int64_t)current_done;
                }
                if (buf_len == buf_cap) {
                    frame_abandoned[buf_fid[0]] = 1;
                    for (int64_t q = 0; q < buf_len - 1; q++) {
                        buf_fid[q] = buf_fid[q + 1];
                        buf_done[q] = buf_done[q + 1];
                    }
                    buf_len -= 1;
                }
                buf_fid[buf_len] = current;
                buf_done[buf_len] = kept;
                buf_len += 1;
            }
            current = -1;
            current_done = 0.0;
            last_backup_tick = t;
            has_last_backup = 1;

            running = 0;
            on_ticks += 1;
            t += 1;
            continue;
        }

        if (tick_energy <= e) e -= tick_energy; else return ST_RUN_DRAINED;
        double exact = instr_per_tick + residue;
        int64_t ipl = (int64_t)exact;
        residue = exact - (double)ipl;
        for (int64_t q = 0; q < n_lanes; q++) committed[q] += ipl;
        run_energy += tick_e[ti]; /* == run_power * 1.0e-4 (dt is 1e-4) */

        /* notify_executed. */
        {
            double elements = (double)ipl / (double)ipe;
            if (idle || current < 0) {
                idle_instr += ipl * n_lanes;
            } else {
                current_done = fill_row(element_bits + current * ne, ne, ne_f,
                                        current_done, elements, lanes[0]);
                if (current_done >= ne_f) {
                    frame_completed[current] = t;
                    current = -1;
                }
                int64_t nz = n_lanes - 1;
                if (nz > n_lane_frames) nz = n_lane_frames;
                for (int64_t i = 0; i < nz; i++) {
                    int64_t fid = lane_frames[i];
                    int64_t bits = lanes[1 + i];
                    int64_t li = -1;
                    for (int64_t k = 0; k < ld_len; k++)
                        if (ld_fid[k] == fid) { li = k; break; }
                    double done;
                    if (li < 0) {
                        int64_t bi = -1;
                        for (int64_t q = 0; q < buf_len; q++)
                            if (buf_fid[q] == fid) { bi = q; break; }
                        done = (bi >= 0) ? (double)buf_done[bi] : 0.0;
                    } else {
                        done = ld_done[li];
                    }
                    done = fill_row(element_bits + fid * ne, ne, ne_f,
                                    done, elements, bits);
                    if (li < 0) {
                        if (ld_len >= 8) return ST_LANEDONE_OVERFLOW;
                        ld_fid[ld_len] = fid;
                        ld_done[ld_len] = done;
                        li = ld_len;
                        ld_len += 1;
                    } else {
                        ld_done[li] = done;
                    }
                    if (done >= ne_f) {
                        frame_completed[fid] = t;
                        frame_incid[fid] = 1;
                        int64_t bi = -1;
                        for (int64_t q = 0; q < buf_len; q++)
                            if (buf_fid[q] == fid) { bi = q; break; }
                        if (bi >= 0) {
                            for (int64_t q = bi; q < buf_len - 1; q++) {
                                buf_fid[q] = buf_fid[q + 1];
                                buf_done[q] = buf_done[q + 1];
                            }
                            buf_len -= 1;
                        }
                        for (int64_t k = li; k < ld_len - 1; k++) {
                            ld_fid[k] = ld_fid[k + 1];
                            ld_done[k] = ld_done[k + 1];
                        }
                        ld_len -= 1;
                    }
                }
            }
        }

        bit_sched[t] = (int16_t)lanes[0];
        lane_sched[t] = (int16_t)n_lanes;
        on_ticks += 1;
        t += 1;
    }

    iout[0] = committed[0];
    iout[1] = committed[1];
    iout[2] = committed[2];
    iout[3] = committed[3];
    iout[4] = on_ticks;
    iout[5] = idle_instr;
    iout[6] = arrived;
    iout[7] = n_backups;
    iout[8] = n_restores;
    iout[9] = n_exp;
    dout[0] = run_energy;
    dout[1] = total_backup;
    dout[2] = total_restore;
    return ST_OK;
}
"""

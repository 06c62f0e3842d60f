#!/usr/bin/env bash
# Fault matrix: proves the test suite catches deliberately planted bugs.
#
# Each fault below sits in the source behind
# `#[cfg(rdse_fault = "<name>")]` (or `cfg!(...)`), so normal builds
# never contain it. For every fault this script builds the crate with
# RUSTFLAGS='--cfg rdse_fault="<name>"' and runs the tests named for it:
# the crate's unit tests, or with `<package>:<target>` the integration
# test file `tests/<target>.rs`.
# A fault is *killed* when at least one named test fails; the script
# fails if any fault survives, does not build, or names a test that does
# not exist.
#
# Usage: scripts/fault_matrix.sh [fault...]   (default: every fault)
#
# Faulty builds go to target/fault-matrix so the normal target/ stays
# warm; the first build there compiles the workspace from scratch.
set -euo pipefail
cd "$(dirname "$0")/.."

# fault name -> "<package>[:<test target>] <test name>..." (names as
# `cargo test` prints them)
declare -A FAULTS=(
    # A context kept across a delta keeps its old area (and
    # reconfiguration weight) after a task joined or left it.
    # Implementation changes take the in-place path instead (next row).
    [ctx_stale_area]="rdse-mapping
        evaluator::tests::context_mirror_matches_fresh_sync_after_every_delta
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # An implementation change resized in place keeps its context's old
    # area and reconfiguration weight.
    [resize_stale_area]="rdse-mapping
        evaluator::tests::implementation_changes_resize_their_context_in_place
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # An implementation change that alters its context's reconfiguration
    # weight does not seed the context's initials, whose in-edges carry
    # that weight.
    [resize_skips_initials_seed]="rdse-mapping
        evaluator::tests::implementation_changes_resize_their_context_in_place
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # The direct-cycle check counts a data predecessor in the moved
    # task's own context as one in a later context: a feasible move is
    # rejected as cyclic.
    [direct_cycle_same_context]="rdse-mapping
        evaluator::tests::context_mirror_matches_fresh_sync_after_every_delta
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # When the context count changes, the last context's terminals are
    # not re-marked (a stale or missing out-bundle marker).
    [ctx_tail_marker]="rdse-mapping
        evaluator::tests::context_mirror_matches_fresh_sync_after_every_delta
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # A context edge from the previous context's terminals to this
    # context's initials weighs 0 instead of the reconfiguration time,
    # both in the edge enumeration and in the relaxation's bundle star.
    [ctx_edge_no_reconfig]="rdse-mapping
        evaluator::tests::matches_reference_on_random_mappings
        evaluator::tests::wide_bundles_relax_like_the_reference
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # A delta's relaxation pass does not bump the per-pass stamp, so an
    # initial reads the previous context's terminal maximum cached by an
    # earlier pass.
    [bundle_max_stale_stamp]="rdse-mapping
        evaluator::tests::wide_bundles_relax_like_the_reference
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # `DenseDag::set_edge_weight` leaves the inline in-edge weight the
    # relaxation reads at its old value.
    [dense_in_w_stale]="rdse-mapping
        evaluator::tests::matches_reference_on_random_mappings
        evaluator::tests::delta_walk_matches_reference_on_paper_workload
        evaluator::tests::delta_walk_matches_reference_on_layered_200"
    # `DenseDag::longest_path` breaks a tie between two predecessors'
    # candidates towards the later one (`>=` for `>`): labels stay
    # right, the critical path does not match the reference's.
    [dense_pred_tie_ge]="rdse-graph
        dense::tests::tied_candidates_keep_the_first_predecessor
        dense::tests::longest_path_matches_digraph_reference"
    # Undoing an implementation move leaves the new implementation in
    # place instead of restoring the previous one.
    [undo_wrong_impl]="rdse-mapping
        moves::tests::proposals_keep_mapping_structurally_valid
        evaluator::tests::context_mirror_matches_fresh_sync_after_every_delta
        evaluator::tests::delta_walk_matches_reference_on_paper_workload"
    # With more than one thread, the portfolio puts its worker chunks
    # back in reverse worker order after each segment.
    [fanout_chunks_reversed]="rdse-mapping
        explorer::tests::portfolio_is_thread_count_invariant
        explorer::tests::front_exchange_is_thread_count_invariant"
    # The evaluator's capacity check refuses a context filled exactly
    # to its device's CLB capacity, which the annealer's packing rule
    # produces routinely.
    [ctx_capacity_off_by_one]="rdse-mapping
        evaluator::tests::a_context_filled_exactly_to_capacity_is_feasible
        explorer::tests::explore_beats_all_software"
    # The version 1 body checksum (FNV-1a 64) ignores the body's last
    # byte. Only the pinned reference vectors and the pinned version 1
    # frame notice: no writer emits version 1 any more.
    [store_checksum_skips_last]="rdse-store
        log::tests::checksum_and_frame_bytes_are_pinned"
    # The version 2 body checksum (XXH64) ignores the body's last byte.
    # Writer and reader agree, and a flipped final `}` still fails
    # decoding, so only the pinned reference vectors and frame bytes
    # notice.
    [store_xxh64_skips_last]="rdse-store
        log::tests::checksum_and_frame_bytes_are_pinned"
    # Replay keeps the archived mapping text one byte short.
    [store_raw_span_short]="rdse-store:proptests
        body_decode_agrees_with_the_tree_decode
        text_held_mappings_keep_frames_byte_identical"
    # A repeated head key overwrites its first occurrence, which is the
    # one `Value::get` (and so the tree decode) reads.
    [store_head_last_dup_wins]="rdse-store
        record::tests::repeated_and_unknown_head_keys_follow_value_get"
    # A dominated hit needs a budget above the request's: a request at
    # exactly the archived budget misses.
    [store_dominating_strict_budget]="rdse-store
        archive::tests::dominating_answers_a_request_at_exactly_the_archived_budget"
    # Among dominating records of equal budget the larger key answers.
    [store_dominating_tie_larger_key]="rdse-store
        archive::tests::dominating_budget_ties_keep_the_smaller_key"
    # Serve refuses an app of exactly `max_tasks` tasks.
    [serve_max_tasks_inclusive]="rdse-serve
        handler::tests::an_app_of_exactly_max_tasks_is_accepted"
    # An RPC session idle past the read timeout writes a `timeout`
    # frame as it closes, which a client keeping the connection reads as
    # the reply to its next request.
    [rpc_idle_close_writes_timeout]="rdse-serve:session_test
        a_kept_connection_the_server_closed_is_resent_once
        an_idle_session_closes_without_writing_a_frame"
    # A decoded task graph that joins one pair of tasks twice passes
    # validation, although the builder refuses the second edge.
    [validate_accepts_duplicate_edges]="rdse-model
        app::tests::validate_rejects_deserialized_edges_the_builder_would_refuse"
    # The oracle never compares the incremental evaluator's summary with
    # the from-scratch evaluation, so that leg can diverge unseen.
    [oracle_skips_incremental_leg]="rdse-corpus
        oracle::tests::an_incremental_summary_off_by_one_micro_is_a_divergence"
    # The DES sends a data edge between two tasks on one ASIC over the
    # bus, which the analytic model treats as on-device.
    [sim_asic_edge_on_bus]="rdse-sim
        des::tests::an_edge_inside_one_asic_never_uses_the_bus"
    # The string scanner's fast path lets a raw tab through.
    [json_ascii_skips_ctrl]="serde_json
        tests::rejects_raw_control_characters_in_strings
        tests::reader_rejects_what_from_str_rejects"
    # After mid-log damage, replay resyncs past the first intact frame
    # instead of resuming at it.
    [store_resync_skips_one]="rdse-store:torn_tail
        corruption_at_every_byte_of_the_first_record_keeps_every_later_record"
    # Crowding distance gives each objective's largest point 0 instead
    # of infinity, so NSGA-II may drop a front's far end.
    [crowding_open_upper_boundary]="rdse-bench:quality
        nsga2_front_against_the_scalar_point_is_exact"
    # NSGA-II's crowded tournament ignores crowding distance: a tie in
    # rank keeps the first pick.
    [nsga2_tournament_ignores_crowding]="rdse-bench:quality
        nsga2_front_against_the_scalar_point_is_exact"
    # A warm-started chain walks a shifted RNG stream, as if the warm
    # start had consumed a draw.
    [warm_start_draws_rng]="rdse-bench:quality
        a_warm_start_from_the_cold_initial_repeats_the_cold_run"
    # The command-line parser skips a flag its command's table does not
    # declare, so `rdse explore ... --bogus` runs on the defaults.
    [cli_unknown_flag_ignored]="rdse:cli
        unknown_repeated_and_valueless_flags_exit_with_code_2"
)

if [ "$#" -gt 0 ]; then
    selected=("$@")
else
    mapfile -t selected < <(printf '%s\n' "${!FAULTS[@]}" | sort)
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/fault-matrix}"
survivors=0
for fault in "${selected[@]}"; do
    spec="${FAULTS[$fault]:-}"
    if [ -z "$spec" ]; then
        echo "unknown fault: $fault" >&2
        exit 2
    fi
    read -r -a words <<<"$(echo $spec)"
    package="${words[0]%%:*}"
    target=(--lib)
    if [[ "${words[0]}" == *:* ]]; then
        target=(--test "${words[0]#*:}")
    fi
    tests=("${words[@]:1}")
    echo "== fault $fault: ${#tests[@]} test(s) in ${words[0]}"
    log="$(mktemp)"
    set +e
    RUSTFLAGS="--cfg rdse_fault=\"$fault\"" \
        cargo test -p "$package" "${target[@]}" -- --exact "${tests[@]}" >"$log" 2>&1
    set -e
    ran=$(grep -cE '^test .* \.\.\. (ok|FAILED)$' "$log" || true)
    if ! grep -q '^test result:' "$log" || [ "$ran" -ne "${#tests[@]}" ]; then
        echo "   BROKEN: build failed or ran $ran of ${#tests[@]} named tests" >&2
        tail -n 30 "$log" >&2
        rm -f "$log"
        exit 1
    fi
    killers=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log")
    rm -f "$log"
    if [ -n "$killers" ]; then
        echo "$killers" | sed 's/^/   killed by /'
    else
        echo "   SURVIVED: every named test passed" >&2
        survivors=$((survivors + 1))
    fi
done

if [ "$survivors" -gt 0 ]; then
    echo "fault matrix: $survivors fault(s) survived" >&2
    exit 1
fi
echo "fault matrix: all ${#selected[@]} fault(s) killed"

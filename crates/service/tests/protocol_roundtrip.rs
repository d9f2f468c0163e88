//! Property tests: `decode(encode(m)) == m` for **every** protocol
//! variant, with fuzzed payloads (including JSON-hostile strings — quotes,
//! backslashes, control characters, non-ASCII) since the wire format is
//! hand-written rather than serde-derived.

use chop_core::prelude::{CacheStats, Completion, Heuristic, MoveKind};
use chop_service::{
    BudgetEnvelope, ExploreParams, MoveSummary, OpenParams, OptimizeParams, OptimizeSummary,
    Request, Response, Role, RunSummary, ServiceError, PROTOCOL_VERSION,
};
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Every replication role.
fn role() -> BoxedStrategy<Role> {
    prop_oneof![Just(Role::Primary), Just(Role::Standby), Just(Role::Fenced)].boxed()
}

/// Decodes a request line, dropping its `req_id`.
fn decode(line: &str) -> Request {
    Request::decode_tagged(line).expect(line).0
}

/// A session-ish identifier.
fn name() -> BoxedStrategy<String> {
    "[a-z][a-z0-9_-]{0,12}".boxed()
}

/// Strings that stress the JSON escaper: quotes, backslashes, control
/// characters, multi-byte UTF-8, braces. Built from literal fragments so
/// the regex stub can't mangle the escapes.
fn hostile_text() -> BoxedStrategy<String> {
    let fragment = prop_oneof![
        Just("a = input 16"),
        Just("\n"),
        Just("\""),
        Just("\\"),
        Just("\t"),
        Just("\r"),
        Just("\u{0}"),
        Just("\u{1f}"),
        Just("π"),
        Just("🦀"),
        Just("{},:[]"),
        Just(" "),
    ];
    collection::vec(fragment, 0..8).prop_map(|parts| parts.concat()).boxed()
}

fn heuristic() -> BoxedStrategy<Heuristic> {
    prop_oneof![Just(Heuristic::Enumeration), Just(Heuristic::Iterative)].boxed()
}

fn completion() -> BoxedStrategy<Completion> {
    prop_oneof![
        Just(Completion::Complete),
        Just(Completion::TruncatedDeadline),
        Just(Completion::TruncatedTrials),
        Just(Completion::DegradedToIterative),
    ]
    .boxed()
}

fn opt_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (0u64..1_000_000_000).prop_map(Some)].boxed()
}

fn opt_u32() -> BoxedStrategy<Option<u32>> {
    prop_oneof![Just(None), (1u32..64).prop_map(Some)].boxed()
}

fn open_params() -> BoxedStrategy<OpenParams> {
    let head = (hostile_text(), 1u32..9, opt_u32());
    let tail = (prop_oneof![Just(64u32), Just(84u32)], 1.0f64..1e9, 1.0f64..1e9, any::<bool>());
    (head, tail)
        .prop_map(|((spec, partitions, chips), (package_pins, perf, delay, multi_cycle))| {
            OpenParams {
                spec,
                partitions,
                chips,
                package_pins,
                performance_ns: perf,
                delay_ns: delay,
                multi_cycle,
            }
        })
        .boxed()
}

fn budget() -> BoxedStrategy<BudgetEnvelope> {
    (opt_u64(), opt_u64())
        .prop_map(|(deadline_ms, max_trials)| BudgetEnvelope { deadline_ms, max_trials })
        .boxed()
}

fn explore_params() -> BoxedStrategy<ExploreParams> {
    (heuristic(), budget(), opt_u32())
        .prop_map(|(heuristic, budget, jobs)| ExploreParams { heuristic, budget, jobs })
        .boxed()
}

fn optimize_params() -> BoxedStrategy<OptimizeParams> {
    // Wire numbers ride on JSON doubles, so seeds cap at 2^53 − 1 (the
    // largest exactly-representable integer; larger seeds are rejected
    // on decode rather than silently rounded).
    let head = (0u64..(1 << 53), budget(), heuristic(), opt_u32(), opt_u32(), opt_u32());
    let tail = (
        collection::vec(0u32..64, 0..4),
        collection::vec(collection::vec(0u32..64, 0..3), 0..3),
        collection::vec((0u32..64, 0u32..64), 0..3),
    );
    (head, tail)
        .prop_map(
            |(
                (seed, budget, heuristic, kicks, kick_moves, jobs),
                (pinned, groups, exclusions),
            )| {
                OptimizeParams {
                    seed,
                    budget,
                    heuristic,
                    kicks,
                    kick_moves,
                    jobs,
                    pinned,
                    groups,
                    exclusions,
                }
            },
        )
        .boxed()
}

fn move_kind() -> BoxedStrategy<MoveKind> {
    prop_oneof![Just(MoveKind::Gain), Just(MoveKind::Kick)].boxed()
}

fn move_summary() -> BoxedStrategy<MoveSummary> {
    (collection::vec(0u32..256, 1..4), 0u32..8, 0u32..8, 1u32..16, move_kind())
        .prop_map(|(nodes, from, to, pass, kind)| MoveSummary { nodes, from, to, pass, kind })
        .boxed()
}

fn optimize_summary() -> BoxedStrategy<OptimizeSummary> {
    let head = (hostile_text(), any::<bool>(), 0.0f64..2e18, 0.0f64..1e6, 0u64..1_000_000);
    let tail =
        (0u32..64, 0u32..8, completion(), collection::vec(move_summary(), 0..5), run_summary());
    (head, tail)
        .prop_map(
            |(
                (digest, feasible, initial_score, final_score, evaluations),
                (passes, kicks, completion, moves, run),
            )| OptimizeSummary {
                digest,
                feasible,
                initial_score,
                final_score,
                evaluations,
                passes,
                kicks,
                completion,
                moves,
                run,
            },
        )
        .boxed()
}

fn run_summary() -> BoxedStrategy<RunSummary> {
    let head = (heuristic(), hostile_text(), 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000);
    let tail = (
        completion(),
        any::<bool>(),
        0.0f64..1e6,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000,
        0u64..1_000_000,
        0u64..1_000_000_000,
    );
    (head, tail)
        .prop_map(
            |(
                (heuristic, digest, trials, feasible_trials, feasible),
                (
                    completion,
                    degraded,
                    elapsed_ms,
                    predictor_calls,
                    cache_hits,
                    cache_misses,
                    subtrees_skipped,
                    combinations_skipped,
                ),
            )| RunSummary {
                heuristic,
                digest,
                trials,
                feasible_trials,
                feasible,
                completion,
                degraded,
                elapsed_ms,
                predictor_calls,
                cache_hits,
                cache_misses,
                subtrees_skipped,
                combinations_skipped,
            },
        )
        .boxed()
}

fn cache_stats() -> BoxedStrategy<CacheStats> {
    (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000, 0u64..1_000, 0u64..1_000_000_000)
        .prop_map(|(hits, misses, evictions, entries, bytes)| CacheStats {
            hits,
            misses,
            evictions,
            entries,
            bytes,
        })
        .boxed()
}

fn service_error() -> BoxedStrategy<ServiceError> {
    use chop_service::ErrorKind;
    let kind = prop_oneof![
        Just(ErrorKind::Protocol),
        Just(ErrorKind::UnknownSession),
        Just(ErrorKind::SessionExists),
        Just(ErrorKind::Spec),
        Just(ErrorKind::Engine),
        Just(ErrorKind::Internal),
        Just(ErrorKind::Standby),
        Just(ErrorKind::Fenced),
    ];
    let primary = prop_oneof![Just(None), hostile_text().prop_map(Some)];
    let epoch = prop_oneof![Just(None), (0u64..1_000).prop_map(Some)];
    (kind, hostile_text(), primary, epoch)
        .prop_map(|(kind, message, primary, epoch)| {
            let mut err = ServiceError::new(kind, message);
            err.primary = primary;
            err.epoch = epoch;
            err
        })
        .boxed()
}

/// Every [`Request`] variant, with fuzzed payloads.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        (name(), open_params()).prop_map(|(session, params)| Request::Open { session, params }),
        (name(), explore_params())
            .prop_map(|(session, params)| Request::Explore { session, params }),
        (name(), optimize_params())
            .prop_map(|(session, params)| Request::Optimize { session, params }),
        (name(), collection::vec((0u32..64, 0u32..8), 0..5))
            .prop_map(|(session, moves)| Request::ApplyMoves { session, moves }),
        (name(), 0u32..64, 0u32..8).prop_map(|(session, node, to)| Request::Repartition {
            session,
            node,
            to
        }),
        (name(), 1.0f64..1e9, 1.0f64..1e9).prop_map(|(session, performance_ns, delay_ns)| {
            Request::SetConstraints { session, performance_ns, delay_ns }
        }),
        prop_oneof![Just(None), name().prop_map(Some)]
            .prop_map(|session| Request::Stats { session }),
        name().prop_map(|session| Request::Close { session }),
        Just(Request::Shutdown),
        (
            0u64..1_000_000,
            hostile_text(),
            0u64..100,
            prop_oneof![Just(None), hostile_text().prop_map(Some)]
        )
            .prop_map(|(seq, record, epoch, primary)| Request::ReplApply {
                seq,
                record,
                epoch,
                primary
            }),
        (
            0u64..1_000_000,
            collection::vec(hostile_text(), 0..4),
            0u64..100,
            prop_oneof![Just(None), hostile_text().prop_map(Some)]
        )
            .prop_map(|(seq, records, epoch, primary)| Request::ReplSnapshot {
                seq,
                records,
                epoch,
                primary
            }),
        Just(Request::Promote),
        (0u64..100, role()).prop_map(|(epoch, role)| Request::RoleChange { epoch, role }),
        hostile_text().prop_map(|pair| Request::AddPair { pair }),
        hostile_text().prop_map(|pair| Request::RemovePair { pair }),
        Just(Request::RouterStatus),
        name().prop_map(|session| Request::Export { session }),
        collection::vec(hostile_text(), 0..4).prop_map(|records| Request::Import { records }),
    ]
    .boxed()
}

/// Valid `req_id` envelope tags (1..=128 bytes, arbitrary content).
fn req_id() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        "[a-z0-9-]{1,32}".prop_map(Some),
        hostile_text().prop_map(|s| {
            let mut id = s;
            while id.len() > 128 {
                id.pop();
            }
            if id.is_empty() {
                id.push('x');
            }
            Some(id)
        }),
    ]
    .boxed()
}

/// Every [`Response`] variant, with fuzzed payloads.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            // A role-less (legacy) pong never encodes an epoch, so pair
            // the two: epoch rides only when a role is present.
            prop_oneof![Just(None), (role(), 0u64..100).prop_map(Some)],
            prop_oneof![Just(None), hostile_text().prop_map(Some)],
        )
            .prop_map(|(role_epoch, peer)| {
                let (role, epoch) = match role_epoch {
                    Some((role, epoch)) => (Some(role), epoch),
                    None => (None, 0),
                };
                Response::Pong { version: PROTOCOL_VERSION, role, epoch, peer }
            }),
        (name(), 1u64..64)
            .prop_map(|(session, partitions)| Response::Opened { session, partitions }),
        (name(), run_summary()).prop_map(|(session, run)| Response::Explored { session, run }),
        (name(), optimize_summary()).prop_map(|(session, result)| Response::Optimized {
            session,
            result: Box::new(result)
        }),
        (name(), 0u64..1_000)
            .prop_map(|(session, moves)| Response::MovesApplied { session, moves }),
        (name(), 0u32..64, 0u32..8).prop_map(|(session, node, to)| Response::Repartitioned {
            session,
            node,
            to
        }),
        (
            collection::vec(name(), 0..5),
            cache_stats(),
            collection::vec(0u64..4_096, 0..9),
            prop_oneof![Just(None), run_summary().prop_map(Some)],
        )
            .prop_map(|(sessions, cache, shard_entries, last_run)| Response::Stats {
                sessions,
                cache,
                shard_entries,
                last_run
            }),
        (name(), 1.0f64..1e9, 1.0f64..1e9).prop_map(|(session, performance_ns, delay_ns)| {
            Response::ConstraintsSet { session, performance_ns, delay_ns }
        }),
        name().prop_map(|session| Response::Closed { session }),
        Just(Response::ShuttingDown),
        (0u64..128, 0u64..128, 0u64..5_000).prop_map(
            |(inflight, max_inflight, retry_after_ms)| Response::Busy {
                inflight,
                max_inflight,
                retry_after_ms
            }
        ),
        (0u64..1_000_000).prop_map(|seq| Response::ReplAck { seq }),
        (0u64..1_000, 0u64..100)
            .prop_map(|(sessions, epoch)| Response::Promoted { sessions, epoch }),
        collection::vec(hostile_text(), 0..4).prop_map(|pairs| Response::PairAdded { pairs }),
        collection::vec(hostile_text(), 0..4).prop_map(|pairs| Response::PairRemoved { pairs }),
        collection::vec(hostile_text(), 0..4)
            .prop_map(|pairs| Response::RouterStatus { pairs }),
        (name(), collection::vec(hostile_text(), 0..4))
            .prop_map(|(session, records)| Response::Exported { session, records }),
        (name(), 0u64..1_000)
            .prop_map(|(session, records)| Response::Imported { session, records }),
        service_error().prop_map(Response::Error),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(req in request()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        prop_assert_eq!(decode(&line), req);
    }

    #[test]
    fn every_response_round_trips(resp in response()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        prop_assert_eq!(Response::decode(&line).expect(&line), resp);
    }

    #[test]
    fn requests_survive_a_double_round_trip(req in request()) {
        // encode → decode → encode must be a fixed point (canonical form).
        let once = req.encode();
        let twice = decode(&once).encode();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn responses_survive_a_double_round_trip(resp in response()) {
        let once = resp.encode();
        let twice = Response::decode(&once).expect(&once).encode();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn req_id_envelopes_round_trip(req in request(), id in req_id()) {
        let line = req.encode_tagged(id.as_deref());
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        let (decoded, decoded_id) = Request::decode_tagged(&line).expect(&line);
        prop_assert_eq!(decoded, req);
        prop_assert_eq!(decoded_id, id);
    }

    #[test]
    fn untagged_decode_ignores_the_envelope(req in request(), id in req_id()) {
        // The `req_id` envelope field never changes the request it rides
        // on, and an untagged line decodes with no id.
        let tagged = decode(&req.encode_tagged(id.as_deref()));
        let untagged = Request::decode_tagged(&req.encode()).expect("untagged line");
        prop_assert_eq!(&tagged, &req);
        prop_assert_eq!(untagged, (req, None));
    }

    #[test]
    fn legacy_flat_budget_aliases_the_nested_envelope(
        session in name(),
        budget in budget(),
        jobs in opt_u32(),
    ) {
        // Pre-envelope clients sent `deadline_ms` / `max_trials` as flat
        // top-level fields. Hand-build such a line and check it decodes
        // to exactly what the canonical nested `"budget"` object yields.
        let mut flat = format!(
            "{{\"v\":1,\"type\":\"explore\",\"session\":\"{session}\",\"heuristic\":\"I\""
        );
        if let Some(deadline) = budget.deadline_ms {
            flat.push_str(&format!(",\"deadline_ms\":{deadline}"));
        }
        if let Some(trials) = budget.max_trials {
            flat.push_str(&format!(",\"max_trials\":{trials}"));
        }
        if let Some(jobs) = jobs {
            flat.push_str(&format!(",\"jobs\":{jobs}"));
        }
        flat.push('}');
        let canonical = Request::Explore {
            session,
            params: ExploreParams { heuristic: Heuristic::Iterative, budget, jobs },
        };
        let decoded = decode(&flat);
        prop_assert_eq!(&decoded, &canonical);
        // And the re-encoded canonical form still round-trips.
        let line = canonical.encode();
        prop_assert_eq!(decode(&line), canonical);
    }
}

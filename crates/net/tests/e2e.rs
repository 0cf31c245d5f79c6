//! End-to-end loopback tests: a real [`NetServer`] on an OS-assigned
//! port, real [`NetClient`] connections, and — crucially — bitwise
//! comparison of every served answer against the in-process
//! [`Session::ask`] path.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_dataset::Vocabulary;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_net::{NetClient, NetErrorCode, NetServer, Response, ServerConfig, TenantAuth};
use mnn_serve::{AdmissionConfig, BatchConfig, Session, SessionConfig};
use mnnfast::Precision;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS: usize = 8;

/// One small deterministic model plus held-out stories, shared by every
/// test in the file. Serving-compatible shape (position encoding, no
/// temporal rows) so a sliding window is safe.
fn trained_model() -> (MemNet, Vocabulary, Vec<Story>) {
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let train_set = generator.dataset(60, NS, 3);
    let test_set = generator.dataset(6, NS, 3);
    let config = ModelConfig {
        temporal: false,
        position_encoding: true,
        ..ModelConfig::for_generator(&generator, 16, NS)
    };
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(25)
        .momentum(0.5)
        .train(&mut model, &train_set);
    (model, generator.vocab().clone(), test_set)
}

/// The session shape every test serves with: a sliding window the size
/// of one story, so replaying many stories stays within the model's
/// positional range.
fn session_config(precision: Precision) -> SessionConfig {
    SessionConfig {
        max_sentences: Some(NS),
        precision,
        ..SessionConfig::default()
    }
}

fn server_config(tenants: &[(&str, &str)]) -> ServerConfig {
    ServerConfig {
        tenants: tenants
            .iter()
            .map(|(token, tenant)| TenantAuth {
                token: (*token).to_owned(),
                tenant: (*tenant).to_owned(),
            })
            .collect(),
        batching: Some(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(500),
        }),
        ..ServerConfig::default()
    }
}

/// Replays the stories through a loopback connection and through an
/// in-process session, and demands bit-identical words AND probability
/// bit patterns.
fn assert_loopback_parity(precision: Precision) {
    let (model, vocab, stories) = trained_model();
    let cfg = session_config(precision);
    let server = NetServer::spawn(
        model.clone(),
        vocab.clone(),
        cfg,
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");
    let (mut client, tenant) = NetClient::connect(server.addr(), "alpha").expect("connect");
    assert_eq!(tenant, "alice");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");

    let mut reference = Session::new(model, cfg).expect("in-process session");
    let mut compared = 0usize;
    for story in &stories {
        for sentence in &story.sentences {
            let remote = client.observe_tokens(sentence).expect("observe");
            let local = reference.observe(sentence).expect("observe local");
            let _ = local;
            assert_eq!(remote as usize, reference.memory_len(), "memory in step");
        }
        // Pipeline the story's questions so the server actually batches.
        let mut ids = Vec::new();
        for q in &story.questions {
            ids.push(client.send_ask_tokens(&q.tokens).expect("send"));
        }
        let mut answers = HashMap::new();
        for _ in &ids {
            match client.recv().expect("recv") {
                Response::Answer(a) => {
                    answers.insert(a.id, a);
                }
                other => panic!("expected an answer, got {other:?}"),
            }
        }
        for (q, id) in story.questions.iter().zip(&ids) {
            let local = reference.ask(&q.tokens).expect("ask local");
            let remote = &answers[id];
            assert_eq!(remote.word, local.word, "answer word over loopback");
            assert_eq!(
                remote.probability.to_bits(),
                local.probability.to_bits(),
                "probability must cross the wire bit-exactly"
            );
            assert_eq!(remote.degraded, local.degraded);
            assert_eq!(remote.text, vocab.word(local.word).unwrap_or(""));
            compared += 1;
        }
    }
    assert!(compared >= 12, "enough questions compared: {compared}");
    server.shutdown();
}

#[test]
fn loopback_answers_match_in_process_f32() {
    assert_loopback_parity(Precision::F32);
}

#[test]
fn loopback_answers_match_in_process_int8() {
    assert_loopback_parity(Precision::Int8);
}

#[test]
fn concurrent_tenants_each_get_their_own_answers() {
    let (model, vocab, stories) = trained_model();
    let cfg = session_config(Precision::F32);
    let server = NetServer::spawn(
        model.clone(),
        vocab,
        cfg,
        server_config(&[("alpha", "alice"), ("beta", "bob")]),
    )
    .expect("server spawns");
    let addr = server.addr();

    // Each tenant serves a different story concurrently; answers must
    // match that tenant's in-process replay, proving coalescing across
    // tenants never leaks memory between them.
    let handles: Vec<_> = [("alpha", 0usize), ("beta", 1usize)]
        .into_iter()
        .map(|(token, story_idx)| {
            let story = stories[story_idx].clone();
            let model = model.clone();
            std::thread::spawn(move || {
                let (mut client, _) = NetClient::connect(addr, token).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .expect("timeout");
                let mut reference = Session::new(model, cfg).expect("in-process session");
                for sentence in &story.sentences {
                    client.observe_tokens(sentence).expect("observe");
                    reference.observe(sentence).expect("observe local");
                }
                for q in &story.questions {
                    let remote = match client.ask_tokens(&q.tokens).expect("ask") {
                        Response::Answer(a) => a,
                        other => panic!("expected answer, got {other:?}"),
                    };
                    let local = reference.ask(&q.tokens).expect("ask local");
                    assert_eq!(remote.word, local.word);
                    assert_eq!(remote.probability.to_bits(), local.probability.to_bits());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("tenant thread");
    }
    server.shutdown();
}

#[test]
fn overload_sheds_typed_frames_and_recovers() {
    let (model, vocab, stories) = trained_model();
    // Capacity covers one full coalesced batch (cost = sentences × hops
    // per question, NS per question here, 4·NS per batch) but not two;
    // the burst below must shed, and the refill restores service within
    // tens of milliseconds.
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            admission: Some(AdmissionConfig {
                capacity: 5 * NS as u64,
                refill_per_sec: 400,
            }),
            ..server_config(&[("alpha", "alice")])
        },
    )
    .expect("server spawns");
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let story = &stories[0];
    for sentence in &story.sentences {
        client.observe_tokens(sentence).expect("observe");
    }

    // Burst far past the bucket. Every response must decode (no dropped
    // connection, no malformed frame); the overflow must be typed
    // Overloaded with a positive retry hint.
    let burst = 16;
    for _ in 0..burst {
        client
            .send_ask_tokens(&story.questions[0].tokens)
            .expect("send");
    }
    let mut answered = 0;
    let mut shed = 0;
    for _ in 0..burst {
        match client.recv().expect("every frame decodes") {
            Response::Answer(_) => answered += 1,
            Response::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms > 0, "retry hint must be positive");
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(answered >= 1, "the bucket admits the first questions");
    assert!(shed >= 1, "the burst must overflow the bucket");
    assert_eq!(answered + shed, burst);

    // Recovery: after the bucket refills the same connection serves
    // again — overload never costs the client its connection.
    std::thread::sleep(Duration::from_millis(200));
    let mut recovered = false;
    for _ in 0..10 {
        match client.ask_tokens(&story.questions[0].tokens).expect("ask") {
            Response::Answer(_) => {
                recovered = true;
                break;
            }
            Response::Overloaded { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(100)));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(recovered, "service must recover once the bucket refills");

    let stats = client.stats().expect("stats");
    assert!(stats.shed_questions >= shed as u64);
    assert!(
        stats
            .sheds_by_tenant
            .iter()
            .any(|(t, n)| t == "alice" && *n >= shed as u64),
        "sheds are attributed to the bursting tenant: {:?}",
        stats.sheds_by_tenant
    );
    server.shutdown();
}

/// The socket-level half of the killed-client case. An idle scheduler
/// answers at once, so whether the answer beats the hang-up is left to
/// the OS here; the scheduler unit test of the same name pins the case
/// where the connection closes while its question is still queued.
#[test]
fn killed_client_mid_request_reclaims_the_slot() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");
    let story = &stories[0];

    {
        let (mut doomed, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
        doomed
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        for sentence in &story.sentences {
            doomed.observe_tokens(sentence).expect("observe");
        }
        doomed
            .send_ask_tokens(&story.questions[0].tokens)
            .expect("send");
        // Drop without reading the answer: the socket closes with the
        // request in flight.
    }

    // The server must answer the orphaned question, drop the unroutable
    // answer, and keep serving new connections at full health.
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("reconnect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    match client.ask_tokens(&story.questions[0].tokens).expect("ask") {
        Response::Answer(_) => {}
        other => panic!("expected answer, got {other:?}"),
    }
    // Poll stats until the orphaned question has been answered: the pool
    // must hold zero pending questions (the dead client's slot is
    // reclaimed, not leaked).
    let mut drained = false;
    for _ in 0..100 {
        let stats = client.stats().expect("stats");
        if stats.pending_questions == 0 && stats.questions_answered >= 2 {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(drained, "orphaned ask must be flushed, not leaked");
    server.shutdown();
}

#[test]
fn bad_bytes_get_a_typed_error_not_a_hangup() {
    use std::io::{Read, Write};
    let (model, vocab, _) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");

    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    // The server answers a typed error frame before closing.
    let mut reader = std::io::BufReader::new(raw);
    let frame = mnn_net::read_frame(&mut reader).expect("typed error frame");
    match frame {
        mnn_net::NetFrame::Error { id, code, .. } => {
            assert_eq!(id, mnn_net::NO_REQUEST);
            assert_eq!(code, NetErrorCode::BadRequest);
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // After the error the connection drains closed.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection closes after the protocol error");

    // An honest client on a fresh connection is unaffected.
    let (_client, tenant) = NetClient::connect(server.addr(), "alpha").expect("connect");
    assert_eq!(tenant, "alice");
    server.shutdown();
}

#[test]
fn auth_is_required_and_tokens_are_checked() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");

    // Wrong token: typed auth rejection.
    match NetClient::connect(server.addr(), "wrong") {
        Err(mnn_net::NetError::Rejected { code, .. }) => assert_eq!(code, NetErrorCode::Auth),
        other => panic!("expected auth rejection, got {other:?}"),
    }

    // No hello at all: asks are refused with an auth error, not served.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let ask = mnn_net::NetFrame::AskTokens {
            id: 7,
            tokens: stories[0].questions[0].tokens.clone(),
        };
        raw.write_all(&ask.encode()).expect("write");
        let mut reader = std::io::BufReader::new(raw);
        match mnn_net::read_frame(&mut reader).expect("frame") {
            mnn_net::NetFrame::Error { id, code, .. } => {
                assert_eq!(id, 7);
                assert_eq!(code, NetErrorCode::Auth);
            }
            other => panic!("expected auth error, got {other:?}"),
        }
    }
    server.shutdown();
}

/// The socket-level half of the shutdown drain: asks sent before a
/// shutdown are all answered. An idle scheduler dispatches them before
/// the shutdown arrives; the scheduler unit test of the same name feeds
/// `[Ask, Ask, Shutdown]` in one drain to pin the case where they are
/// still queued.
#[test]
fn shutdown_drains_queued_questions_before_acking() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            // Max-wait far beyond the test duration: no answer below can
            // come from the age-based flush.
            batching: Some(BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(30),
            }),
            ..server_config(&[("alpha", "alice")])
        },
    )
    .expect("server spawns");
    let story = &stories[0];

    let (mut asker, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    asker
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    for sentence in &story.sentences {
        asker.observe_tokens(sentence).expect("observe");
    }
    let mut ids = Vec::new();
    for q in &story.questions {
        ids.push(asker.send_ask_tokens(&q.tokens).expect("send"));
    }

    // Give the scheduler a beat to accept the asks, then shut down from a
    // second connection.
    std::thread::sleep(Duration::from_millis(50));
    let (mut admin, _) = NetClient::connect(server.addr(), "alpha").expect("connect admin");
    admin
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    admin.shutdown_server().expect("shutdown acked");

    // Every accepted ask was answered.
    let mut got = 0;
    for _ in &ids {
        match asker.recv().expect("drained answer") {
            Response::Answer(_) => got += 1,
            other => panic!("expected drained answer, got {other:?}"),
        }
    }
    assert_eq!(got, ids.len(), "no accepted question goes unanswered");
    server.wait();
}

#[test]
fn lone_ask_is_not_held_for_max_wait() {
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            // Neither bound is reachable by one question in this test: only
            // the idle flush can dispatch it.
            batching: Some(BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(30),
            }),
            ..server_config(&[("alpha", "alice")])
        },
    )
    .expect("server spawns");
    let story = &stories[0];
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for sentence in &story.sentences {
        client.observe_tokens(sentence).expect("observe");
    }
    match client
        .ask_tokens(&story.questions[0].tokens)
        .expect("a lone ask is answered while the scheduler is idle")
    {
        Response::Answer(_) => {}
        other => panic!("expected an answer, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn busy_tenant_cannot_starve_a_lone_ask() {
    let (model, vocab, stories) = trained_model();
    let max_wait = Duration::from_millis(100);
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            batching: Some(BatchConfig {
                max_batch: 4,
                max_wait,
            }),
            ..server_config(&[("alpha", "alice"), ("beta", "bob")])
        },
    )
    .expect("server spawns");
    let addr = server.addr();
    let story = stories[0].clone();

    let (mut lone, _) = NetClient::connect(addr, "beta").expect("connect beta");
    lone.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    for sentence in &story.sentences {
        lone.observe_tokens(sentence).expect("observe");
    }

    // Tenant alpha keeps 16 asks in flight in a closed loop, so its full
    // batches flush inline and its next asks keep the scheduler's channel
    // busy.
    let stop = Arc::new(AtomicBool::new(false));
    let (warm_tx, warm_rx) = std::sync::mpsc::channel();
    let busy = {
        let stop = stop.clone();
        let story = story.clone();
        std::thread::spawn(move || {
            let (mut client, _) = NetClient::connect(addr, "alpha").expect("connect alpha");
            client
                .set_read_timeout(Some(Duration::from_secs(20)))
                .expect("timeout");
            for sentence in &story.sentences {
                client.observe_tokens(sentence).expect("observe");
            }
            let question = &story.questions[0].tokens;
            let mut in_flight = 0usize;
            while in_flight < 16 {
                client.send_ask_tokens(question).expect("send");
                in_flight += 1;
            }
            let mut answered = 0usize;
            while in_flight > 0 {
                match client.recv().expect("busy tenant answered") {
                    Response::Answer(_) => answered += 1,
                    other => panic!("expected an answer, got {other:?}"),
                }
                in_flight -= 1;
                if answered == 64 {
                    let _ = warm_tx.send(());
                }
                if !stop.load(Ordering::Acquire) {
                    client.send_ask_tokens(question).expect("send");
                    in_flight += 1;
                }
            }
            answered
        })
    };

    warm_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the busy tenant is under way");
    let t0 = Instant::now();
    let answer = lone.ask_tokens(&story.questions[0].tokens).expect("ask");
    let waited = t0.elapsed();
    stop.store(true, Ordering::Release);
    assert!(
        matches!(answer, Response::Answer(_)),
        "expected an answer, got {answer:?}"
    );
    // max_wait plus one pass, with generous slack for a loaded test host.
    let bound = max_wait + Duration::from_secs(2);
    assert!(
        waited <= bound,
        "lone ask waited {waited:?} behind a busy tenant (bound {bound:?})"
    );
    assert!(busy.join().expect("busy tenant") >= 64);
    server.shutdown();
}

#[test]
fn sequential_observe_round_trips_never_stall() {
    // Each round trip needs two cross-thread wake-ups (net thread to
    // scheduler, scheduler to net thread). Two connections share the one
    // net thread, so one's wake-ups land while the thread re-arms after
    // the other's. A lost wake-up has no poll timer to hide behind: it
    // would surface here as a read timeout.
    let (model, vocab, stories) = trained_model();
    let server = NetServer::spawn(
        model,
        vocab,
        session_config(Precision::F32),
        ServerConfig {
            net_threads: 1,
            ..server_config(&[("alpha", "alice"), ("beta", "bob")])
        },
    )
    .expect("server spawns");
    let addr = server.addr();
    let sentences: Vec<_> = stories.iter().flat_map(|s| s.sentences.clone()).collect();
    let clients: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|token| {
            let sentences = sentences.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let (mut client, _) = NetClient::connect(addr, token).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                for i in 0..2000 {
                    client
                        .observe_tokens(&sentences[i % sentences.len()])
                        .map_err(|e| format!("{token}: observe round trip {i} stalled: {e}"))?;
                }
                Ok(())
            })
        })
        .collect();
    let stalls: Vec<String> = clients
        .into_iter()
        .filter_map(|c| c.join().expect("client thread").err())
        .collect();
    if !stalls.is_empty() {
        // A net thread that lost a wake-up would also miss the shutdown
        // wake and hang the server's drop; leak it so the test fails
        // instead.
        std::mem::forget(server);
        panic!("{stalls:?}");
    }
    server.shutdown();
}

#[test]
fn threaded_server_above_the_split_gate_matches_one_thread() {
    // Every pass over this memory holds at least `SPLIT_MIN_WORK` rows ×
    // questions, so the two-thread server splits even a lone ask; the
    // in-process reference runs the same questions on one thread.
    let (model, vocab, stories) = trained_model();
    let rows = mnnfast::SPLIT_MIN_WORK;
    let plan =
        |threads| mnnfast::ExecPlan::new(mnnfast::MnnFastConfig::new(64).with_threads(threads));
    assert_eq!(plan(2).batch_threads(rows, model.embedding_dim(), 1), 2);
    let server_cfg = SessionConfig {
        plan: plan(2),
        ..SessionConfig::default()
    };
    let server = NetServer::spawn(
        model.clone(),
        vocab,
        server_cfg,
        server_config(&[("alpha", "alice")]),
    )
    .expect("server spawns");
    let (mut client, _) = NetClient::connect(server.addr(), "alpha").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reference = Session::new(
        model,
        SessionConfig {
            plan: plan(1),
            ..SessionConfig::default()
        },
    )
    .expect("in-process session");

    // Load the memory with a bounded pipeline of observes.
    let sentences: Vec<_> = stories.iter().flat_map(|s| s.sentences.clone()).collect();
    let mut in_flight = 0usize;
    for i in 0..rows {
        let sentence = &sentences[i % sentences.len()];
        client.send_observe_tokens(sentence).expect("send observe");
        reference.observe(sentence).expect("observe local");
        in_flight += 1;
        if in_flight == 32 || i + 1 == rows {
            for _ in 0..in_flight {
                match client.recv().expect("recv") {
                    Response::Observed { .. } => {}
                    other => panic!("expected an observe ack, got {other:?}"),
                }
            }
            in_flight = 0;
        }
    }
    assert_eq!(reference.memory_len(), rows);

    // Pipeline the questions so the server coalesces some of them.
    let questions: Vec<_> = stories.iter().flat_map(|s| s.questions.clone()).collect();
    let ids: Vec<u64> = questions
        .iter()
        .map(|q| client.send_ask_tokens(&q.tokens).expect("send"))
        .collect();
    let mut answers = HashMap::new();
    for _ in &ids {
        match client.recv().expect("recv") {
            Response::Answer(a) => {
                answers.insert(a.id, a);
            }
            other => panic!("expected an answer, got {other:?}"),
        }
    }
    for (q, id) in questions.iter().zip(&ids) {
        let local = reference.ask(&q.tokens).expect("ask local");
        let remote = &answers[id];
        assert_eq!(remote.word, local.word, "answer word");
        assert_eq!(
            remote.probability.to_bits(),
            local.probability.to_bits(),
            "a split pass must carry the one-thread bits"
        );
    }
    server.shutdown();
}

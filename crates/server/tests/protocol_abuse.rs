//! Protocol-abuse tests: malformed frames must produce typed errors or a
//! clean close — never a panic, a hung accept loop, or a wedged server.
//! One server instance survives the whole gauntlet and still drains
//! gracefully at the end.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use gmg_server::protocol::{self, ErrorCode};
use gmg_server::{start, ServerConfig};

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

/// The liveness probe: a PING round-trip proves the accept loop and a
/// fresh connection thread still work.
fn assert_alive(addr: std::net::SocketAddr) {
    let mut s = connect(addr);
    protocol::write_frame(&mut s, protocol::OP_PING, b"alive?").unwrap();
    let f = protocol::read_frame(&mut s).expect("pong");
    assert_eq!(f.opcode, protocol::OP_PONG);
    assert_eq!(f.payload, b"alive?");
}

#[test]
fn malformed_frames_never_kill_the_server() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    // 1. truncated header: two bytes, then disconnect
    {
        let mut s = connect(addr);
        s.write_all(&[0x05, 0x00]).unwrap();
    }
    assert_alive(addr);

    // 2. oversized declared length → typed BadFrame error, then close
    {
        let mut s = connect(addr);
        s.write_all(&(protocol::MAX_FRAME + 1).to_le_bytes())
            .unwrap();
        s.write_all(&[protocol::OP_PING]).unwrap();
        let f = protocol::read_frame(&mut s).expect("error frame");
        assert_eq!(f.opcode, protocol::OP_ERROR);
        let (code, msg) = protocol::decode_error(&f.payload).unwrap();
        assert_eq!(code, ErrorCode::BadFrame);
        assert!(msg.contains("exceeds"), "got: {msg}");
        // the connection is then closed from the server side
        assert!(matches!(
            protocol::read_frame(&mut s),
            Err(protocol::FrameError::Closed) | Err(protocol::FrameError::Io(_))
        ));
    }
    assert_alive(addr);

    // 3. mid-frame disconnect: header promises 100 payload bytes, send 10
    {
        let mut s = connect(addr);
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[protocol::OP_SOLVE]).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
    }
    assert_alive(addr);

    // 4. unknown opcode → typed error, connection STAYS usable
    {
        let mut s = connect(addr);
        protocol::write_frame(&mut s, 0x7f, b"???").unwrap();
        let f = protocol::read_frame(&mut s).expect("error frame");
        assert_eq!(f.opcode, protocol::OP_ERROR);
        let (code, _) = protocol::decode_error(&f.payload).unwrap();
        assert_eq!(code, ErrorCode::UnknownOpcode);
        protocol::write_frame(&mut s, protocol::OP_PING, b"still-here").unwrap();
        let f = protocol::read_frame(&mut s).expect("pong after error");
        assert_eq!(f.opcode, protocol::OP_PONG);
    }

    // 5. well-formed frame, garbage SOLVE payload → BadRequest, conn usable
    {
        let mut s = connect(addr);
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &[1, 2, 3, 4]).unwrap();
        let f = protocol::read_frame(&mut s).expect("error frame");
        assert_eq!(f.opcode, protocol::OP_ERROR);
        let (code, _) = protocol::decode_error(&f.payload).unwrap();
        assert_eq!(code, ErrorCode::BadRequest);
        assert_alive(addr);
    }

    // 6. SOLVE with a structurally invalid config (n not 2^k − 1)
    {
        use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
        let cfg = MgConfig::new(2, 7, CycleType::V, SmoothSteps::s444());
        let len = 9 * 9;
        let mut req = gmg_server::SolveRequest::from_config(
            &cfg,
            polymg::Variant::OptPlus,
            0,
            1,
            vec![0.0; len],
            vec![0.0; len],
        );
        req.n = 10; // not 2^k − 1
        let mut s = connect(addr);
        protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).unwrap();
        let f = protocol::read_frame(&mut s).expect("error frame");
        let (code, msg) = protocol::decode_error(&f.payload).unwrap();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(msg.contains("2^k"), "got: {msg}");
    }

    // 7. SOLVE_BATCH abuse: every malformed batch gets a typed BadRequest
    // on a connection that stays usable, and none is ever admitted.
    {
        use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
        use gmg_server::{BatchSolveRequest, SolveRequest};

        let mk = |n: i64| {
            let cfg = MgConfig::new(2, n, CycleType::V, SmoothSteps::s444());
            let len = ((n + 2) * (n + 2)) as usize;
            SolveRequest::from_config(
                &cfg,
                polymg::Variant::OptPlus,
                0,
                1,
                vec![0.0; len],
                vec![0.0; len],
            )
        };

        // (a) zero-count batch
        let mut payloads: Vec<(&str, Vec<u8>)> = vec![("zero-count", 0u16.to_le_bytes().to_vec())];
        // (b) count says 2, payload carries 1 request
        let mut short = BatchSolveRequest {
            reqs: vec![mk(15)],
        }
        .encode();
        short[0..2].copy_from_slice(&2u16.to_le_bytes());
        payloads.push(("count/payload mismatch", short));
        // (c) count above MAX_BATCH
        let mut oversized = ((protocol::MAX_BATCH + 1) as u16).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0u8; 16]);
        payloads.push(("oversized count", oversized));
        // (d) mixed shapes in one batch
        payloads.push((
            "mixed-shape",
            BatchSolveRequest {
                reqs: vec![mk(15), mk(31)],
            }
            .encode(),
        ));
        // (e) trailing garbage after the last request
        let mut trailing = BatchSolveRequest {
            reqs: vec![mk(15)],
        }
        .encode();
        trailing.extend_from_slice(b"junk");
        payloads.push(("trailing garbage", trailing));

        for (what, payload) in payloads {
            let mut s = connect(addr);
            protocol::write_frame(&mut s, protocol::OP_SOLVE_BATCH, &payload).unwrap();
            let f = protocol::read_frame(&mut s).expect("error frame");
            assert_eq!(f.opcode, protocol::OP_ERROR, "{what}: expected OP_ERROR");
            let (code, msg) = protocol::decode_error(&f.payload).unwrap();
            assert_eq!(code, ErrorCode::BadRequest, "{what}: got {code:?}: {msg}");
            // connection survives the typed rejection
            protocol::write_frame(&mut s, protocol::OP_PING, b"post-batch").unwrap();
            let f = protocol::read_frame(&mut s).expect("pong after batch error");
            assert_eq!(f.opcode, protocol::OP_PONG, "{what}: conn wedged");
        }
    }

    // 8. non-finite grids and bad coefficients on every solve opcode: a
    // typed BadRequest naming the first bad index, nothing admitted
    {
        use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
        use gmg_server::{BatchSolveRequest, SolveRequest};

        let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
        let len = 17 * 17;
        let mk = || {
            SolveRequest::from_config(
                &cfg,
                polymg::Variant::OptPlus,
                0,
                1,
                vec![0.0; len],
                vec![1.0; len],
            )
        };
        let mut frames: Vec<(String, u8, Vec<u8>, &str)> = Vec::new();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut req = mk();
            req.scenario = polymg::Scenario::VarCoef.wire_id();
            req.coeff = vec![1.0; len];
            req.coeff[20] = bad;
            frames.push((
                format!("coeff {bad}"),
                protocol::OP_SOLVE_SCENARIO,
                req.encode_scenario(),
                "coeff[20]",
            ));
        }
        for bad in [f64::NAN, f64::INFINITY] {
            let mut req = mk();
            req.v[4] = bad;
            frames.push((
                format!("solve v {bad}"),
                protocol::OP_SOLVE,
                req.encode(),
                "v[4]",
            ));
            let mut req = mk();
            req.f[9] = bad;
            frames.push((
                format!("scenario f {bad}"),
                protocol::OP_SOLVE_SCENARIO,
                req.encode_scenario(),
                "f[9]",
            ));
            let batch = BatchSolveRequest {
                reqs: vec![mk(), req],
            };
            frames.push((
                format!("batch f {bad}"),
                protocol::OP_SOLVE_BATCH,
                batch.encode(),
                "f[9]",
            ));
        }
        for (what, opcode, payload, needle) in frames {
            let mut s = connect(addr);
            protocol::write_frame(&mut s, opcode, &payload).unwrap();
            let f = protocol::read_frame(&mut s).expect("error frame");
            assert_eq!(f.opcode, protocol::OP_ERROR, "{what}: expected OP_ERROR");
            let (code, msg) = protocol::decode_error(&f.payload).unwrap();
            assert_eq!(code, ErrorCode::BadRequest, "{what}: got {code:?}: {msg}");
            assert!(msg.contains(needle), "{what}: {msg}");
        }
        assert_alive(addr);
    }

    let snap = handle.snapshot();
    assert!(
        snap.protocol_errors >= 9,
        "expected protocol errors recorded, got {}",
        snap.protocol_errors
    );
    assert_eq!(snap.requests, 0, "nothing malformed may be admitted");
    assert_eq!(snap.batches, 0, "no malformed batch may count as a pass");

    // graceful drain still works after the gauntlet
    let mut s = connect(addr);
    protocol::write_frame(&mut s, protocol::OP_SHUTDOWN, b"").unwrap();
    let f = protocol::read_frame(&mut s).expect("shutdown ack");
    assert_eq!(f.opcode, protocol::OP_SHUTDOWN_ACK);
    handle.join();
}

#[test]
fn shutdown_rejects_new_solves_and_acks_drain() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();
    handle.begin_shutdown();

    // a SOLVE racing the drain gets the typed ShuttingDown rejection
    // (connections accepted before the accept loop exits still answer)
    let cfg = gmg_multigrid::config::MgConfig::new(
        2,
        7,
        gmg_multigrid::config::CycleType::V,
        gmg_multigrid::config::SmoothSteps::s444(),
    );
    let mut cfg = cfg;
    cfg.levels = 2;
    let len = 9 * 9;
    let req = gmg_server::SolveRequest::from_config(
        &cfg,
        polymg::Variant::OptPlus,
        0,
        1,
        vec![0.0; len],
        vec![0.0; len],
    );
    if let Ok(mut s) = TcpStream::connect(addr) {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if protocol::write_frame(&mut s, protocol::OP_SOLVE, &req.encode()).is_ok() {
            if let Ok(f) = protocol::read_frame(&mut s) {
                assert_eq!(f.opcode, protocol::OP_ERROR);
                let (code, _) = protocol::decode_error(&f.payload).unwrap();
                assert_eq!(code, ErrorCode::ShuttingDown);
            }
        }
    }
    let snap = handle.join();
    assert_eq!(snap.ok, 0);
}

//! End-to-end campaign-server tests: N concurrent HTTP clients must
//! receive NDJSON byte-identical to serial `campaign --json --jobs 1`
//! runs of the same specs, and `DELETE /jobs/{id}` on a running job
//! must leave the server serving.
//!
//! Wired into the `hyperhammer-cli` package (see its `Cargo.toml`) so
//! the real CLI formatter and binary are in reach.

use std::num::NonZeroUsize;
use std::process::Command;

use hh_server::client::Client;
use hh_server::CampaignServer;
use hyperhammer::jobspec::job_spec_to_json;
use hyperhammer::JobSpec;
use hyperhammer_cli::commands::campaign_cell_line;

fn spec(scenario: &str, seeds: usize, base_seed: u64) -> JobSpec {
    JobSpec {
        scenarios: vec![scenario.to_string()],
        seeds,
        base_seed,
        attempts: 2,
        bits: 4,
        ..JobSpec::default()
    }
}

/// The NDJSON bytes a serial (`--jobs 1`) run of `spec` prints.
fn serial_ndjson(spec: &JobSpec) -> String {
    let grid = spec.to_grid().expect("spec is valid");
    let results = grid
        .run(NonZeroUsize::new(1).expect("1 is non-zero"))
        .expect("serial run succeeds");
    let mut out = String::new();
    for result in &results {
        campaign_cell_line(result, &mut out);
    }
    out
}

fn start_server() -> (CampaignServer, Client) {
    let server =
        CampaignServer::start("127.0.0.1:0", campaign_cell_line).expect("bind ephemeral port");
    let client = Client::new(&server.local_addr().to_string());
    (server, client)
}

#[test]
fn concurrent_clients_get_byte_identical_ndjson() {
    let (server, _) = start_server();
    let addr = server.local_addr().to_string();

    // Two scenarios plus one faulted spec, as three concurrent clients.
    let mut faulted = spec("tiny", 2, 0xfa);
    faulted.fault_rate = 0.2;
    faulted.fault_seed = 3;
    faulted.max_retries = 1;
    let specs = [spec("tiny", 2, 0xe2e), spec("micro", 2, 0x51), faulted];

    let streams: Vec<(JobSpec, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let client = Client::new(&addr);
                    let id = client.submit(&job_spec_to_json(spec)).expect("submit");
                    let mut bytes = Vec::new();
                    client.stream(id, &mut bytes).expect("stream");
                    (spec.clone(), String::from_utf8(bytes).expect("UTF-8"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (spec, streamed) in &streams {
        assert_eq!(
            *streamed,
            serial_ndjson(spec),
            "server stream for {:?} must equal the serial run",
            spec.scenarios
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn server_stream_matches_cli_campaign_json_output() {
    // The acceptance bar: bytes equal to the real binary's
    // `campaign --json --jobs 1` stdout, not just an in-process rerun.
    let cli = Command::new(env!("CARGO_BIN_EXE_hyperhammer-sim"))
        .args([
            "campaign",
            "--scenarios",
            "tiny",
            "--seeds",
            "2",
            "--base-seed",
            "3738", // 0xe9a
            "--attempts",
            "2",
            "--bits",
            "4",
            "--jobs",
            "1",
            "--json",
        ])
        .output()
        .expect("run hyperhammer-sim");
    assert!(cli.status.success(), "CLI campaign failed: {cli:?}");

    let (server, client) = start_server();
    let id = client
        .submit(&job_spec_to_json(&spec("tiny", 2, 0xe9a)))
        .expect("submit");
    let mut streamed = Vec::new();
    client.stream(id, &mut streamed).expect("stream");
    assert_eq!(
        String::from_utf8(streamed).expect("UTF-8"),
        String::from_utf8(cli.stdout).expect("UTF-8"),
        "server NDJSON must equal `campaign --json --jobs 1` stdout"
    );

    server.shutdown();
    server.join();
}

#[test]
fn delete_mid_run_keeps_the_server_serving() {
    let (server, client) = start_server();

    // A single-worker job with enough cells to outlive the DELETE.
    let mut long = spec("tiny", 10, 0xde1);
    long.jobs = Some(1);
    let victim = client.submit(&job_spec_to_json(&long)).expect("submit");

    // Wait until the job demonstrably made progress, then cancel.
    loop {
        let status = client.status(victim).expect("status");
        if !status.contains("\"completed\": 0") || status.contains("\"status\": \"done\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let response = client.cancel(victim).expect("cancel");
    assert!(response.contains("\"was\""), "got: {response}");

    // The stream of a cancelled job ends cleanly after the cells that
    // finished; every line it does carry is still byte-exact.
    let mut bytes = Vec::new();
    client.stream(victim, &mut bytes).expect("stream");
    let streamed = String::from_utf8(bytes).expect("UTF-8");
    let full = serial_ndjson(&long);
    assert!(
        full.starts_with(&streamed),
        "a cancelled stream is a grid-order prefix of the full run"
    );

    let terminal = client.status(victim).expect("status");
    assert!(
        terminal.contains("\"status\": \"cancelled\"") || terminal.contains("\"status\": \"done\""),
        "got: {terminal}"
    );

    // Leak-free: the same server keeps accepting and completing jobs
    // (every cancelled cell's host teardown ran, or this run would trip
    // the allocator's free-pages invariants).
    let after = spec("tiny", 1, 0xaf7);
    let id = client.submit(&job_spec_to_json(&after)).expect("submit");
    let mut bytes = Vec::new();
    client.stream(id, &mut bytes).expect("stream");
    assert_eq!(
        String::from_utf8(bytes).expect("UTF-8"),
        serial_ndjson(&after)
    );

    // Graceful remote shutdown: join returning proves every server
    // thread (accept loop, handlers, runner) exited.
    client.shutdown().expect("shutdown");
    server.join();
}

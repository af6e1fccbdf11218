//! Chaos and crash-recovery suite: the durability tentpole's proof.
//!
//! Unlike `serve_e2e` (an in-process server), these tests spawn the real
//! `hpa` binary so they can `kill -9` it mid-job and restart it against
//! the same `--journal-dir` — the recovered results must be bit-identical
//! to a direct in-process run. A seeded [`ChaosProxy`] then damages the
//! client↔daemon wire (drop/delay/truncate/corrupt) to prove the SDK's
//! retry loop and the daemon's connection handling never wedge.

mod chaos;

use chaos::ChaosProxy;
use half_price::obs::digest::debug_digest;
use half_price::sdk::Client;
use half_price::serve::proto::{JobRequest, JobStatus};
use half_price::serve::server::{Server, ServerConfig};
use half_price::workloads::{workload, Scale};
use half_price::{run, MachineWidth, RunSpec, Scheme};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// A spawned `hpa serve` process plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `hpa serve` on an ephemeral port with the given extra
    /// flags, and parses the bound address off the contract line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hpa"))
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hpa serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first =
            lines.next().expect("daemon prints its listening line").expect("readable stdout");
        let addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unparsable listening line: {first}"))
            .to_string();
        // Keep draining stdout so the daemon can never block on a full
        // pipe, whatever it prints later.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// `kill -9`: SIGKILL, no drain, no journal fsync beyond what already
    /// happened.
    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        let _ = self.child.wait();
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpa-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journal_flags(journal: &Path) -> Vec<String> {
    vec!["--journal-dir".into(), journal.display().to_string()]
}

#[test]
fn kill9_mid_job_restart_recovers_bit_identical_results() {
    let journal = tmp_dir("kill9-journal");
    let flags = journal_flags(&journal);
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();

    // Accept two jobs on a 1-worker daemon: one starts, one queues.
    let mut daemon = Daemon::spawn(&flag_refs);
    let client = daemon.client().with_retries(0);
    let gcc = client
        .submit(&JobRequest::workload("gcc", Scale::Tiny, Scheme::Base))
        .expect("submit gcc")
        .job_id;
    let mcf = client
        .submit(&JobRequest::workload("mcf", Scale::Tiny, Scheme::Combined))
        .expect("submit mcf")
        .job_id;

    // The moment both 200s are out, the journal guarantees the jobs —
    // SIGKILL the daemon with one running and one queued.
    daemon.kill9();

    // Restart against the same journal. The replayed jobs must finish
    // with digests bit-identical to direct in-process runs.
    let mut daemon = Daemon::spawn(&flag_refs);
    let client = daemon.client();
    let mut recovered = Vec::new();
    for (id, name, scheme) in [(gcc, "gcc", Scheme::Base), (mcf, "mcf", Scheme::Combined)] {
        let result = client.wait(id, WAIT).expect("recovered job result");
        assert_eq!(result.status, JobStatus::Done, "job {id} ({name}) after recovery");
        let w = workload(name, Scale::Tiny).expect("built-in workload");
        let direct = run(&RunSpec::workload(&w, scheme, MachineWidth::Four)).expect("direct run");
        assert_eq!(
            result.cells[0].stats_digest(),
            Some(debug_digest(&direct.stats)),
            "job {id} ({name}): recovered digest differs from a direct run"
        );
        recovered.push(result);
    }

    // The replay is visible in /health: every journaled job either
    // re-enqueued or rehydrated, and nothing was skipped.
    let health = client.health().expect("health");
    let counter = |key: &str| {
        health.get("counters").and_then(|c| c.get(key)).and_then(|v| v.as_u64()).unwrap_or(999)
    };
    assert_eq!(counter("journal_jobs_requeued") + counter("journal_jobs_rehydrated"), 2);
    assert_eq!(counter("journal_records_skipped"), 0);

    // The journal is the only durable store: a third start replays the
    // finished jobs into the result cache, so resubmitting one is a hit
    // with the byte-identical payload.
    daemon.kill9();
    let daemon = Daemon::spawn(&flag_refs);
    let client = daemon.client();
    let again = client
        .submit(&JobRequest::workload("gcc", Scale::Tiny, Scheme::Base))
        .expect("resubmit gcc");
    assert!(again.cached, "a journal-recovered result must be served from the cache");
    let again = client.result(again.job_id).expect("cached result");
    assert_eq!(again.cells[0].payload_json(), recovered[0].cells[0].payload_json());

    client.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn corrupted_journal_is_skipped_with_a_counter_not_a_crash() {
    let journal = tmp_dir("corrupt-journal");
    let flags = journal_flags(&journal);
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();

    // Run one job to completion so the journal holds a real record set.
    let daemon = Daemon::spawn(&flag_refs);
    let client = daemon.client();
    let id = client
        .submit(&JobRequest::workload("gcc", Scale::Tiny, Scheme::Base))
        .expect("submit")
        .job_id;
    assert_eq!(client.wait(id, WAIT).expect("result").status, JobStatus::Done);
    client.shutdown().expect("shutdown");

    // Damage the journal: flip a byte mid-file and append plain garbage
    // plus a truncated half-line.
    let path = journal.join("journal.jsonl");
    let mut bytes = std::fs::read(&path).expect("journal exists");
    assert!(!bytes.is_empty(), "clean shutdown left a journal");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    bytes.extend_from_slice(b"not a journal line at all\n");
    bytes.extend_from_slice(b"9999 0x00000000deadbeef {\"type\":\"don");
    std::fs::write(&path, &bytes).expect("rewrite journal");

    // The daemon restarts anyway, counts the damage, and still serves.
    let daemon = Daemon::spawn(&flag_refs);
    let client = daemon.client();
    let health = client.health().expect("health after corrupt replay");
    let skipped = health
        .get("counters")
        .and_then(|c| c.get("journal_records_skipped"))
        .and_then(|v| v.as_u64())
        .expect("replay counter present");
    assert!(skipped >= 1, "the damaged records must be counted, got {skipped}");

    let id = client
        .submit(&JobRequest::workload("mcf", Scale::Tiny, Scheme::Base))
        .expect("submit after corrupt replay")
        .job_id;
    assert_eq!(client.wait(id, WAIT).expect("result").status, JobStatus::Done);

    client.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn chaos_proxy_cannot_wedge_the_daemon_and_retries_get_through() {
    // In-process server (no journal needed): the subject here is the
    // wire, not the disk.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let direct = Client::new(addr.to_string());

    let mut through = 0u32;
    for seed in [1u64, 2, 3] {
        let mut proxy = ChaosProxy::start(addr, seed).expect("start proxy");
        let client = Client::new(proxy.addr().to_string())
            .with_io_timeout(Duration::from_secs(2))
            .with_retries(8)
            .with_retry_seed(seed);
        let mut request = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
        request.seed = seed; // unique per seed: every run really simulates
        let outcome = client
            .submit(&request)
            .and_then(|submit| client.wait(submit.job_id, Duration::from_secs(60)));
        if outcome.is_ok_and(|r| r.status == JobStatus::Done) {
            through += 1;
        }
        proxy.stop();
        // Whatever the proxy did to its connections, the daemon itself
        // must still answer instantly on the direct path.
        let health = direct.health().expect("daemon must keep serving");
        assert_eq!(health.get("ok").and_then(|v| v.as_bool()), Some(true));
    }
    assert!(
        through >= 2,
        "retry/backoff should carry most seeds through the chaos, got {through}/3"
    );

    direct.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

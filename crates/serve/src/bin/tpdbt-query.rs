//! `tpdbt-query` — the client for a running `tpdbt-serve`.
//!
//! ```text
//! tpdbt-query --connect SPEC ping
//! tpdbt-query --connect SPEC stats
//! tpdbt-query --connect SPEC shutdown
//! tpdbt-query --connect SPEC plain WORKLOAD [--scale S] [--input ref|train]
//! tpdbt-query --connect SPEC cell  WORKLOAD THRESHOLD [--scale S]
//! tpdbt-query --connect SPEC base  WORKLOAD [--scale S]
//! tpdbt-query --connect SPEC malformed     (protocol test: sends garbage)
//! ```
//!
//! `--retries N` retries *idempotent* single requests (ping, plain,
//! cell, base) up to N times after transport failures, reconnecting
//! with capped exponential backoff — a daemon restarting under the
//! client (crash recovery, graceful restart) costs latency, not an error.
//! Non-idempotent operations never retry.
//!
//! Prints the response body as one line of JSON on stdout. Exit
//! status: 0 when the server answered `ok: true`, 1 on transport
//! failures or an `ok: false` response, 2 on usage errors (an unknown
//! option or op is named on stderr before the usage text).

use tpdbt_serve::json::Json;
use tpdbt_serve::proto::Request;
use tpdbt_serve::Client;
use tpdbt_suite::{InputKind, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: tpdbt-query --connect SPEC [--deadline-ms MS] [--retries N] OP [ARGS]\n  OP: ping | stats | shutdown | malformed\n      plain WORKLOAD [--scale tiny|small|paper] [--input ref|train]\n      cell  WORKLOAD THRESHOLD [--scale tiny|small|paper]\n      base  WORKLOAD [--scale tiny|small|paper]\n  --retries N reconnects and retries idempotent requests on transport failure"
    );
    std::process::exit(2)
}

fn fatal(message: impl std::fmt::Display) -> ! {
    eprintln!("tpdbt-query: {message}");
    std::process::exit(1)
}

fn main() {
    let mut connect: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: u32 = 0;
    let mut scale = Scale::Tiny;
    let mut input = InputKind::Ref;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--connect" => connect = Some(value()),
            "--deadline-ms" => deadline_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--retries" => retries = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = value().parse().unwrap_or_else(|_| usage()),
            "--input" => {
                input = match value().as_str() {
                    "ref" => InputKind::Ref,
                    "train" => InputKind::Train,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => {
                eprintln!("tpdbt-query: unknown option `{arg}`");
                usage()
            }
            _ => positional.push(arg),
        }
    }
    let Some(connect) = connect else { usage() };
    let mut pos = positional.iter().map(String::as_str);
    let op = pos.next().unwrap_or_else(|| usage());

    // Validate the whole command line before dialing, so a usage
    // error never looks like a transport failure. `None` is the
    // deliberately malformed frame.
    let request = match op {
        "malformed" => None,
        "ping" => Some(Request::Ping),
        "stats" => Some(Request::Stats),
        "shutdown" => Some(Request::Shutdown),
        "plain" => Some(Request::Plain {
            workload: pos.next().unwrap_or_else(|| usage()).to_string(),
            scale,
            input,
        }),
        "cell" => Some(Request::Cell {
            workload: pos.next().unwrap_or_else(|| usage()).to_string(),
            scale,
            threshold: pos
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| usage()),
        }),
        "base" => Some(Request::Base {
            workload: pos.next().unwrap_or_else(|| usage()).to_string(),
            scale,
        }),
        other => {
            eprintln!("tpdbt-query: unknown op `{other}`");
            usage()
        }
    };
    if pos.next().is_some() {
        usage();
    }

    let mut client = Client::connect(&connect)
        .unwrap_or_else(|e| fatal(format_args!("connect {connect}: {e}")))
        .with_retries(retries);

    let reply = match request {
        // Exercises the server's structured malformed-frame error path.
        None => client.send_raw(b"this is not json"),
        Some(request) => client.request(request, deadline_ms),
    };

    match reply {
        Ok(body) => {
            println!("{}", body.render());
            let ok = body.get("ok").and_then(Json::as_bool).unwrap_or(false);
            std::process::exit(i32::from(!ok));
        }
        Err(e) => fatal(e),
    }
}

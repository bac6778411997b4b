//! Tests for the protocol decisions documented in DESIGN.md §8:
//! re-targeting, co-op identity checks, moved tombstones, version
//! semantics, and ping liveness.

use dcws_core::{MemStore, Outcome, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, Location, ServerId};
use dcws_http::{Request, StatusCode};

fn home_id() -> ServerId {
    ServerId::new("home:8000")
}
fn coop_a() -> ServerId {
    ServerId::new("coopa:8001")
}
fn coop_b() -> ServerId {
    ServerId::new("coopb:8002")
}

fn engine(id: ServerId) -> ServerEngine {
    ServerEngine::new(
        id,
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    )
}

/// Home with /index.html (entry) -> /d.html, peers a and b.
fn make_home() -> ServerEngine {
    let mut e = engine(home_id());
    e.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    e.publish(
        "/d.html",
        br#"<html><body>doc D <a href="/index.html">up</a></body></html>"#.to_vec(),
        DocKind::Html,
        false,
    );
    e.add_peer(coop_a());
    e.add_peer(coop_b());
    e
}

/// Drive load and a tick so /d.html migrates; returns the chosen co-op.
fn migrate_d(home: &mut ServerEngine, now: u64) -> ServerId {
    for t in 0..80u64 {
        home.handle_request(&Request::get("/d.html"), now - 1000 + t);
    }
    let out = home.tick(now);
    assert_eq!(out.migrated.len(), 1, "expected a migration");
    out.migrated[0].1.clone()
}

/// Simulate one coop pulling /d.html from home.
fn pull_to(coop: &mut ServerEngine, home: &mut ServerEngine, now: u64) -> bool {
    let pull = coop.make_pull_request("/d.html", now);
    let resp = home
        .handle_request(&pull, now)
        .into_response()
        .expect("pull answered");
    if resp.status == StatusCode::Ok {
        assert!(coop.store_pulled(&home_id(), "/d.html", &resp, now));
        true
    } else {
        coop.pull_rejected(&home_id(), "/d.html", &resp, now);
        false
    }
}

#[test]
fn pull_from_wrong_coop_redirects_to_current() {
    let mut home = make_home();
    let first = migrate_d(&mut home, 10_000);
    // The *other* co-op (stale assignment) pulls: it must get a 301 to the
    // current host, not content.
    let mut wrong = engine(if first == coop_a() {
        coop_b()
    } else {
        coop_a()
    });
    let pull = wrong.make_pull_request("/d.html", 10_001);
    let resp = home
        .handle_request(&pull, 10_001)
        .into_response()
        .expect("answered");
    assert_eq!(resp.status, StatusCode::MovedPermanently);
    let loc = resp.headers.get("Location").expect("location");
    assert!(
        loc.contains(&first.host_port().0.to_string()),
        "points at {first}: {loc}"
    );
    assert!(loc.contains("/~migrate/"), "migrate-form URL: {loc}");
}

#[test]
fn moved_tombstone_redirects_then_expires() {
    let mut home = make_home();
    let first = migrate_d(&mut home, 10_000);
    let mut wrong = engine(if first == coop_a() {
        coop_b()
    } else {
        coop_a()
    });

    // Wrong co-op receives a client for /d.html (stale link), pulls, is
    // rejected, and learns the tombstone.
    let mig = "/~migrate/home/8000/d.html";
    assert!(matches!(
        wrong.handle_request(&Request::get(mig), 10_002),
        Outcome::FetchNeeded { .. }
    ));
    assert!(!pull_to(&mut wrong, &mut home, 10_003));

    // Now clients are redirected straight to the right place.
    let r = wrong
        .handle_request(&Request::get(mig), 10_004)
        .into_response()
        .expect("tombstone answers directly");
    assert_eq!(r.status, StatusCode::MovedPermanently);
    assert!(r
        .headers
        .get("Location")
        .expect("loc")
        .contains(first.host_port().0));

    // After T_val the tombstone expires and the co-op re-checks.
    let later = 10_004 + ServerConfig::paper_defaults().validation_interval_ms + 1;
    assert!(matches!(
        wrong.handle_request(&Request::get(mig), later),
        Outcome::FetchNeeded { .. }
    ));
}

#[test]
fn no_redirect_loop_after_revoke_and_remigrate_to_same_coop() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.ping_failure_limit = 1;
    let mut home = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    home.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home.publish("/d.html", b"<p>D</p>".to_vec(), DocKind::Html, false);
    home.add_peer(coop_a());
    let target = migrate_d(&mut home, 10_000);
    assert_eq!(target, coop_a());

    let mut coop = engine(coop_a());
    assert!(pull_to(&mut coop, &mut home, 10_001));

    // Home briefly declares the co-op dead (recall), the co-op learns of
    // the revocation via validation...
    home.declare_peer_dead(&coop_a());
    let later = 10_001 + 130_000;
    let out = coop.tick(later);
    let (_, vreq) = &out.validations[0];
    let vresp = home
        .handle_request(vreq, later)
        .into_response()
        .expect("validation");
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);

    // ...then the co-op comes back and home re-migrates /d.html to it.
    let mut hello = Request::get("/index.html");
    coop.attach_reports(&mut hello.headers, later + 1);
    home.handle_request(&hello, later + 1);
    for t in 0..80u64 {
        // Keep the hits inside the statistics window that closes at the
        // tick below.
        home.handle_request(&Request::get("/d.html"), later + 11_000 + t);
    }
    let out = home.tick(later + 12_000);
    assert_eq!(out.migrated.len(), 1);
    assert_eq!(out.migrated[0].1, coop_a());

    // The revoked copy must NOT blind-redirect home (that would loop):
    // it re-pulls, succeeds, and serves.
    let mig = "/~migrate/home/8000/d.html";
    let now = later + 12_001;
    let Outcome::FetchNeeded { .. } = coop.handle_request(&Request::get(mig), now) else {
        panic!("revoked copy must re-check with home");
    };
    assert!(pull_to(&mut coop, &mut home, now));
    let r = coop
        .handle_request(&Request::get(mig), now + 1)
        .into_response()
        .expect("served after re-pull");
    assert_eq!(r.status, StatusCode::Ok);
    assert!(String::from_utf8_lossy(&r.body).contains("D"));
}

#[test]
fn remigration_retargets_to_less_loaded_coop() {
    let mut cfg = ServerConfig::paper_defaults();
    cfg.remigration_interval_ms = 50_000;
    let mut home = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    home.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home.publish("/d.html", b"<p>D</p>".to_vec(), DocKind::Html, false);
    home.add_peer(coop_a());
    home.add_peer(coop_b());

    let first = migrate_d(&mut home, 10_000);
    // Feed load reports: the hosting co-op is slammed, the other idle.
    let mut slammed = engine(first.clone());
    let other = if first == coop_a() {
        coop_b()
    } else {
        coop_a()
    };
    for t in 0..300u64 {
        slammed.handle_request(&Request::get("/nope"), 60_000 + t);
    }
    let mut msg = Request::get("/index.html");
    slammed.attach_reports(&mut msg.headers, 62_000);
    home.handle_request(&msg, 62_000);

    // T_home has elapsed; the tick re-targets directly to the idle co-op.
    let out = home.tick(70_000);
    let retargeted: Vec<_> = out
        .migrated
        .iter()
        .filter(|(d, _)| d == "/d.html")
        .collect();
    assert_eq!(
        retargeted.len(),
        1,
        "re-target expected: {:?}",
        out.migrated
    );
    assert_eq!(retargeted[0].1, other);
    assert!(out
        .revoked
        .iter()
        .any(|(d, c)| d == "/d.html" && *c == first));
    assert_eq!(
        home.ldg().get("/d.html").expect("exists").location,
        Location::Coop(other)
    );
}

#[test]
fn validation_from_stale_coop_gets_revocation_notice() {
    let mut home = make_home();
    let first = migrate_d(&mut home, 10_000);
    let stale = if first == coop_a() {
        coop_b()
    } else {
        coop_a()
    };
    let vreq = Request::get("/d.html")
        .with_header("X-DCWS-Validate", "1")
        .with_header("X-DCWS-Coop", stale.as_str());
    let resp = home
        .handle_request(&vreq, 10_002)
        .into_response()
        .expect("answered");
    assert_eq!(resp.status, StatusCode::Ok);
    assert!(resp.headers.contains("X-DCWS-Revoked"));

    // The current co-op's validation is answered normally.
    let version = home.doc_version("/d.html");
    let vreq = Request::get("/d.html")
        .with_header("X-DCWS-Validate", &version.to_string())
        .with_header("X-DCWS-Coop", first.as_str());
    let resp = home
        .handle_request(&vreq, 10_003)
        .into_response()
        .expect("answered");
    assert_eq!(resp.status, StatusCode::NotModified);
}

#[test]
fn dirty_migrated_doc_validation_refreshes_links() {
    // d links to index; migrate d, pull it, then migrate ANOTHER doc that
    // d links to — d's copy must refresh on next validation even though
    // nobody republished it.
    let mut home = engine(home_id());
    home.publish(
        "/index.html",
        br#"<a href="/d.html">D</a><a href="/e.html">E</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home.publish(
        "/d.html",
        br#"<a href="/e.html">E</a>"#.to_vec(),
        DocKind::Html,
        false,
    );
    home.publish("/e.html", b"<p>E</p>".to_vec(), DocKind::Html, false);
    home.add_peer(coop_a());
    home.add_peer(coop_b());

    // Migrate /d.html first.
    for t in 0..80u64 {
        home.handle_request(&Request::get("/d.html"), 9_000 + t);
    }
    let out = home.tick(10_000);
    assert_eq!(out.migrated[0].0, "/d.html");
    let d_coop = out.migrated[0].1.clone();
    let mut coop = engine(d_coop.clone());
    assert!(pull_to(&mut coop, &mut home, 10_001));

    // Now migrate /e.html (d's link target) somewhere.
    for t in 0..80u64 {
        home.handle_request(&Request::get("/e.html"), 79_000 + t);
    }
    let out = home.tick(80_000);
    assert!(out.migrated.iter().any(|(d, _)| d == "/e.html"), "{out:?}");

    // d is dirty at home; the co-op validates and must get fresh content
    // whose link points at e's co-op.
    let later = 10_001 + 130_000;
    let out = coop.tick(later);
    let (_, vreq) = &out.validations[0];
    let vresp = home
        .handle_request(vreq, later)
        .into_response()
        .expect("validation");
    assert_eq!(vresp.status, StatusCode::Ok, "dirty copy must refresh");
    coop.handle_validation_response(&home_id(), "/d.html", &vresp, later);
    let r = coop
        .handle_request(&Request::get("/~migrate/home/8000/d.html"), later + 1)
        .into_response()
        .expect("served");
    let body = String::from_utf8_lossy(&r.body);
    assert!(
        body.contains("/~migrate/home/8000/e.html"),
        "stale link not refreshed: {body}"
    );
}

#[test]
fn validation_times_are_jittered() {
    // Two copies stored at the same instant must not revalidate in
    // lockstep forever: the re-arm applies per-path jitter.
    let mut coop = engine(coop_a());
    let mut home = engine(home_id());
    home.add_peer(coop_a());
    // Two real migrations to the one co-op, T_coop apart, then two lazy
    // pulls stored at the same instant.
    let docs = ["/d.html", "/e.html"];
    for (i, d) in docs.iter().enumerate() {
        home.publish(d, format!("<p>{d}</p>").into_bytes(), DocKind::Html, false);
        let at = 10_000 + i as u64 * 60_000;
        for t in 0..80u64 {
            home.handle_request(&Request::get(*d), at - 1000 + t);
        }
        assert_eq!(home.tick(at).migrated, vec![(d.to_string(), coop_a())]);
    }
    let stored = 80_000;
    for d in docs {
        let pull = coop.make_pull_request(d, stored);
        let resp = home
            .handle_request(&pull, stored)
            .into_response()
            .expect("pull answered");
        assert_eq!(resp.status, StatusCode::Ok);
        assert!(coop.store_pulled(&home_id(), d, &resp, stored));
    }
    assert_eq!(coop.coop_doc_count(), 2);

    // First wave: both due together (identical fetch times).
    let t1 = stored + 120_001;
    let out = coop.tick(t1);
    assert_eq!(out.validations.len(), 2);

    // Second wave: scan forward in 1 s steps; with per-path jitter the two
    // documents come due at different times (unless their path hashes
    // collide mod T_val/4, which these don't).
    let mut due_at: Vec<(u64, usize)> = Vec::new();
    let mut t = t1 + 85_000;
    while t <= t1 + 125_000 {
        let o = coop.tick(t);
        if !o.validations.is_empty() {
            due_at.push((t, o.validations.len()));
        }
        t += 1_000;
    }
    let total: usize = due_at.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 2, "both revalidate: {due_at:?}");
    assert!(
        due_at.len() == 2 && due_at[0].0 != due_at[1].0,
        "jitter separates the waves: {due_at:?}"
    );
}

#[test]
fn ping_response_with_503_is_still_alive() {
    // Engine-level: ping_result(ok=true) regardless of status is the
    // host's responsibility; verify the engine honors resurrect-on-report
    // and does not recall docs for an alive-but-slammed peer.
    let mut cfg = ServerConfig::paper_defaults();
    cfg.ping_failure_limit = 2;
    let mut home = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    home.publish(
        "/index.html",
        br#"<a href="/d.html">D</a>"#.to_vec(),
        DocKind::Html,
        true,
    );
    home.publish("/d.html", b"<p>D</p>".to_vec(), DocKind::Html, false);
    home.add_peer(coop_a());
    migrate_d(&mut home, 10_000);

    // One failure, then a success: counter resets, nothing recalled.
    home.ping_result(&coop_a(), false, None);
    home.ping_result(&coop_a(), true, None);
    home.ping_result(&coop_a(), false, None);
    assert!(home.ldg().get("/d.html").expect("exists").location == Location::Coop(coop_a()));
    assert_eq!(home.stats().peers_declared_dead, 0);
}

#[test]
fn replicas_can_pull_and_serve() {
    // The §6 hot-spot replication extension end to end: one hot doc is
    // migrated to several co-ops at once; each replica's pull is accepted
    // by the home, and rewritten links spread across the replica set.
    let mut cfg = ServerConfig::paper_defaults();
    cfg.hot_replication = Some(dcws_core::HotReplication {
        hot_fraction: 0.5,
        max_replicas: 3,
    });
    let mut home = ServerEngine::new(home_id(), cfg, Box::new(MemStore::new()));
    // Several pages all embed the same hot image.
    let mut body = String::from("<html><body>");
    for i in 0..6 {
        body.push_str(&format!("<a href=\"/p{i}.html\">p</a>"));
    }
    body.push_str("</body></html>");
    home.publish("/index.html", body.into_bytes(), DocKind::Html, true);
    for i in 0..6 {
        home.publish(
            &format!("/p{i}.html"),
            br#"<img src="/hot.gif">"#.to_vec(),
            DocKind::Html,
            false,
        );
    }
    home.publish("/hot.gif", vec![0xEE; 256], DocKind::Image, false);
    for c in ["c1:81", "c2:82", "c3:83"] {
        home.add_peer(ServerId::new(c));
    }
    for t in 0..300u64 {
        home.handle_request(&Request::get("/hot.gif"), 9_000 + t % 900);
    }
    let out = home.tick(10_000);
    let replicas: Vec<ServerId> = out
        .migrated
        .iter()
        .filter(|(d, _)| d == "/hot.gif")
        .map(|(_, c)| c.clone())
        .collect();
    assert!(replicas.len() >= 2, "replication created {replicas:?}");

    // Every replica's pull is honored (is_current_coop accepts them all).
    for rep in &replicas {
        let mut coop = ServerEngine::new(
            rep.clone(),
            ServerConfig::paper_defaults(),
            Box::new(MemStore::new()),
        );
        let pull = coop.make_pull_request("/hot.gif", 10_001);
        let resp = home
            .handle_request(&pull, 10_001)
            .into_response()
            .expect("pull");
        assert_eq!(resp.status, StatusCode::Ok, "replica {rep} pull accepted");
        assert!(coop.store_pulled(&home_id(), "/hot.gif", &resp, 10_001));
    }

    // Rewritten pages spread their image link across the replica set.
    let mut targets = std::collections::HashSet::new();
    for i in 0..6 {
        let r = home
            .handle_request(&Request::get(format!("/p{i}.html")), 10_010 + i)
            .into_response()
            .expect("served");
        let body = String::from_utf8_lossy(&r.body).into_owned();
        let host = body
            .split("src=\"http://")
            .nth(1)
            .and_then(|s| s.split('/').next())
            .map(str::to_string);
        if let Some(h) = host {
            targets.insert(h);
        }
    }
    assert!(
        targets.len() >= 2,
        "links should spread across replicas, got {targets:?}"
    );

    // Direct requests for the hot doc rotate over replicas too (by
    // source key): at minimum they always land on a valid replica.
    let r = home
        .handle_request(&Request::get("/hot.gif"), 10_020)
        .into_response()
        .expect("redirect");
    assert_eq!(r.status, StatusCode::MovedPermanently);
    let loc = r.headers.get("Location").expect("location").to_string();
    assert!(
        replicas.iter().any(|c| loc.contains(c.host_port().0)),
        "redirect {loc} targets a replica"
    );
}

#[test]
fn warm_restart_restores_migrations() {
    let mut home = make_home();
    let coop = migrate_d(&mut home, 10_000);
    let exported = home.export_migrations();
    assert!(exported.contains("/d.html\t"), "{exported}");

    // "Restart": a fresh engine re-publishes the site from disk, then
    // restores the exported migration state.
    let mut restarted = make_home();
    assert!(restarted
        .ldg()
        .get("/d.html")
        .expect("doc")
        .location
        .is_home());
    let n = restarted.restore_migrations(&exported, 20_000);
    assert_eq!(n, 1);
    assert_eq!(
        restarted.ldg().get("/d.html").expect("doc").location,
        Location::Coop(coop)
    );
    // Sources are dirty again, so served pages point at the co-op.
    let r = restarted
        .handle_request(&Request::get("/index.html"), 20_001)
        .into_response()
        .expect("served");
    assert!(String::from_utf8_lossy(&r.body).contains("~migrate"));

    // Malformed or stale lines are ignored.
    assert_eq!(
        restarted.restore_migrations("garbage\n/nope.html\tc:1\n\t\n", 20_002),
        0
    );
}

/// An author update to a document whose link target has migrated must
/// keep the rewritten `~migrate` link: the fresh original still points
/// at the home path, so the republished document has to start dirty or
/// every click on that link costs an extra 301 hop.
#[test]
fn republished_doc_keeps_rewritten_links_to_migrated_targets() {
    let mut home = make_home();
    migrate_d(&mut home, 10_000);
    let get_index = |home: &mut ServerEngine, now: u64| {
        let r = home
            .handle_request(&Request::get("/index.html"), now)
            .into_response()
            .expect("served");
        assert_eq!(r.status, StatusCode::Ok);
        String::from_utf8_lossy(&r.body).into_owned()
    };
    let before = get_index(&mut home, 10_001);
    assert!(before.contains("~migrate"), "before republish: {before}");

    home.publish(
        "/index.html",
        br#"<a href="/d.html">D</a> v2"#.to_vec(),
        DocKind::Html,
        true,
    );
    let after = get_index(&mut home, 10_002);
    assert!(after.contains("v2"), "author update not served: {after}");
    assert!(
        after.contains("~migrate"),
        "republish lost the rewritten link: {after}"
    );
}

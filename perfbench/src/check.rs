//! The output checker. Every run checks every body it receives:
//!
//! * image and `Range` bodies are byte-equal to the materialized corpus
//!   (a mismatch is reported with both `dcws_http::body_checksum`s);
//! * an HTML page carries a version token no older than the last
//!   completed author update of that page, and no newer than the last
//!   one started, and links to exactly the documents its spec names
//!   (rewritten co-op URLs are decoded back to the home path).
//!
//! A wrong body fails its request and makes the run incorrect.

use dcws_core::decode_migrate_path;
use dcws_http::{body_checksum, Url};

/// Marker that opens the version token stamped into every published
/// HTML page of a workload with author updates.
const VERSION_OPEN: &[u8] = b"<!--dcws-v=";

/// `html` with the version token for `version` inserted after its
/// opening `<html>` tag (or at the front when there is none).
pub fn stamp_version(html: &[u8], version: u64) -> Vec<u8> {
    let token = format!("<!--dcws-v={version}-->");
    let at = find(html, b"<html>").map_or(0, |i| i + b"<html>".len());
    let mut out = Vec::with_capacity(html.len() + token.len());
    out.extend_from_slice(&html[..at]);
    out.extend_from_slice(token.as_bytes());
    out.extend_from_slice(&html[at..]);
    out
}

/// The version token carried by `body`, if any.
pub fn version_token(body: &[u8]) -> Option<u64> {
    let start = find(body, VERSION_OPEN)? + VERSION_OPEN.len();
    let digits = body[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    if digits == 0 || !body[start + digits..].starts_with(b"-->") {
        return None;
    }
    std::str::from_utf8(&body[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// `got` must equal `expected` byte for byte.
pub fn check_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    Err(format!(
        "{what}: body mismatch ({} bytes, checksum {}; expected {} bytes, checksum {})",
        got.len(),
        body_checksum(got),
        expected.len(),
        body_checksum(expected)
    ))
}

/// A page's version token must lie in `[min, max]`: no older than the
/// last completed publish the request could see, no newer than the last
/// publish started.
pub fn check_version(what: &str, body: &[u8], min: u64, max: u64) -> Result<u64, String> {
    match version_token(body) {
        Some(v) if (min..=max).contains(&v) => Ok(v),
        Some(v) => Err(format!("{what}: version {v} outside [{min}, {max}]")),
        None => Err(format!("{what}: no version token")),
    }
}

/// The home-relative document path behind a served URL: `~migrate`
/// paths decode to the original path, anything else is its own path.
pub fn home_path(url: &Url) -> Option<String> {
    match decode_migrate_path(url.path()) {
        Ok(Some(t)) => Some(t.path),
        Ok(None) => Some(url.path().to_string()),
        Err(_) => None,
    }
}

/// Every link in `html`, resolved against `base` (the URL it was served
/// from), in document order.
pub fn resolved_links(base: &Url, html: &str) -> Vec<(Url, dcws_html::LinkKind)> {
    dcws_html::extract_links(html)
        .into_iter()
        .filter_map(|l| base.join(&l.url).ok().map(|u| (u, l.kind)))
        .collect()
}

/// The page at `base` must link, in order, to exactly `expected` home
/// paths once co-op URLs are decoded.
pub fn check_links(
    what: &str,
    links: &[(Url, dcws_html::LinkKind)],
    expected: &[&str],
) -> Result<(), String> {
    let got: Vec<Option<String>> = links.iter().map(|(u, _)| home_path(u)).collect();
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| g.as_deref() == Some(*e));
    if same {
        Ok(())
    } else {
        Err(format!(
            "{what}: links {:?} differ from the spec's {:?}",
            got.iter().take(6).collect::<Vec<_>>(),
            expected.iter().take(6).collect::<Vec<_>>()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_one_flipped_byte() {
        let corpus: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        assert!(check_bytes("img", &corpus, &corpus).is_ok());
        let mut bad = corpus.clone();
        bad[1234] ^= 0x01;
        let err = check_bytes("img", &corpus, &bad).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // A range body is checked against its slice of the corpus.
        assert!(check_bytes("range", &corpus[100..300], &corpus[100..300]).is_ok());
        assert!(check_bytes("range", &corpus[100..300], &corpus[101..301]).is_err());
    }

    #[test]
    fn version_tokens_round_trip_and_stale_ones_are_rejected() {
        let page = b"<html><head><title>x</title></head><body>hi</body></html>";
        let v3 = stamp_version(page, 3);
        assert_eq!(version_token(&v3), Some(3));
        assert!(v3.starts_with(b"<html><!--dcws-v=3-->"));
        assert_eq!(version_token(page), None);
        assert_eq!(check_version("p", &v3, 3, 4), Ok(3));
        // Older than the last completed publish: stale.
        assert!(check_version("p", &v3, 4, 5)
            .unwrap_err()
            .contains("outside"));
        // Newer than any publish started: impossible, also rejected.
        assert!(check_version("p", &v3, 0, 2).is_err());
        assert!(check_version("p", page, 0, 9)
            .unwrap_err()
            .contains("no version"));
    }

    #[test]
    fn links_are_compared_after_decoding_coop_urls() {
        let base = Url::parse("http://127.0.0.1:8000/guide/a.html").unwrap();
        let html = r#"<a href="/guide/b.html">b</a>
            <a href="http://127.0.0.1:9000/~migrate/127.0.0.1/8000/guide/c.html">c</a>
            <img src="pic.gif">"#;
        let links = resolved_links(&base, html);
        let want = ["/guide/b.html", "/guide/c.html", "/guide/pic.gif"];
        assert!(check_links("a", &links, &want).is_ok());
        assert!(check_links("a", &links, &want[..2]).is_err());
        assert!(check_links(
            "a",
            &links,
            &["/guide/b.html", "/guide/x.html", "/guide/pic.gif"]
        )
        .is_err());
    }
}

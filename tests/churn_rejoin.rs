//! Leave/rejoin regression: a departed peer's key stays reserved for it.
//!
//! Peer `p` lives at internal key `(p + 1) · KEY_SPACING`. After `Leave(p)`
//! the gap around that key is centred on it, and the balance repair used
//! to place a dummy node on exactly that midpoint. The dummy then made
//! `Join(p)` fail with `DuplicatePeer`, and requests naming `p` resolved
//! to the dummy (under the default policy, `Communicate(p, q)` panicked in
//! the timestamp rules). Dummies now never take a multiple of
//! `KEY_SPACING`, and peer lookups reject a dummy node.

use dsg::prelude::*;
use dsg_workloads::{RotatingHotSet, Workload};

/// n = 1024, seed 7, after 2000 hot requests under the default policy:
/// before the fix 20 of these 40 rejoins failed with `DuplicatePeer`, and
/// the first `Communicate` with a departed peer panicked.
#[test]
fn departed_peers_are_unknown_and_rejoin_after_hot_traffic() {
    let (n, seed) = (1024u64, 7u64);
    let mut session = DsgSession::builder()
        .peers(0..n)
        .seed(seed)
        .build()
        .expect("peer keys 0..n are distinct");
    // Hot traffic builds the long same-bit runs whose repair needs dummies
    // in the gap a departure leaves.
    for request in RotatingHotSet::new(n, 32, 0.9, 200, seed).generate(2000) {
        session.submit(request).expect("hot traffic serves cleanly");
    }

    let mut rejoined = 0;
    for k in 0..40u64 {
        let peer = (k * 97 + 5) % n;
        let partner = (peer + n / 2) % n;
        session
            .submit(Request::Leave(peer))
            .expect("a present peer leaves");
        let while_away = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.submit(Request::communicate(peer, partner))
        }))
        .unwrap_or_else(|_| panic!("communicate with departed peer {peer} panicked"));
        assert_eq!(
            while_away.map(|_| ()),
            Err(DsgError::UnknownPeer(peer)),
            "communicate with departed peer {peer}"
        );
        assert!(session.engine().peer_state(peer).is_err());
        match session.submit(Request::Join(peer)) {
            Ok(_) => rejoined += 1,
            Err(e) => panic!("rejoin of peer {peer} failed: {e}"),
        }
    }
    assert_eq!(rejoined, 40);
    assert_eq!(session.len() as u64, n);
    session
        .engine()
        .validate()
        .expect("the structure stays valid");
}

/// A dummy already sitting on a peer key (as a snapshot written before the
/// fix may hold) is not that peer: lookups report `UnknownPeer`.
#[test]
fn a_dummy_on_a_peer_key_is_not_the_peer() {
    let n = 64u64;
    let session = DsgSession::builder()
        .peers(0..n)
        .seed(3)
        .build()
        .expect("peer keys 0..n are distinct");
    let mut image = session.engine().capture_image();
    let peer = 17u64;
    let key = (peer + 1) * DynamicSkipGraph::KEY_SPACING;
    let node = image
        .nodes
        .iter_mut()
        .find(|node| node.key == key)
        .expect("the peer is in the image");
    node.dummy = true;
    let mut engine = DynamicSkipGraph::restore_image(&image).expect("the image restores");

    assert_eq!(engine.len() as u64, n - 1);
    assert!(!engine.peers().contains(&peer));
    assert!(matches!(
        engine.peer_state(peer),
        Err(DsgError::UnknownPeer(p)) if p == peer
    ));
    assert_eq!(
        engine.communicate(peer, 40).map(|_| ()),
        Err(DsgError::UnknownPeer(peer))
    );
    assert_eq!(engine.remove_peer(peer), Err(DsgError::UnknownPeer(peer)));
}

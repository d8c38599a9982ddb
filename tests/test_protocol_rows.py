"""Protocol runs over every plaintext at once, against per-plaintext
transcripts computed here from the act and Cayley tables, and the three
verify checks that read them, against unmemoised scans with x outermost."""

import dataclasses
import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from edense import acts, closures, core, crypto, verify
from edense.errors import NoDecryptKey, PreconditionFailed, WorkbenchError

from conftest import fx

# --- per-plaintext oracles ----------------------------------------------------


def fixes_all(rows, u):
    return all(rows[u][y] == y for y in range(len(rows[0])))


def oracle_uniform_keys(S, rows, s):
    """The t with t*s fixing every point, in increasing order."""
    if not rows or not rows[0]:
        return []
    return [t for t in S.elements if fixes_all(rows, S.mul(t, s))]


def oracle_right_key(S, right, t):
    """The least r with y(tr) = y for every point y, from right[y][s] = y*s."""
    return next(
        (r for r in S.elements if all(right[y][S.mul(t, r)] == y for y in range(len(right)))),
        None,
    )


def least_key(S, rows, s):
    keys = oracle_uniform_keys(S, rows, s)
    if not keys:
        raise NoDecryptKey(s)
    return keys[0]


def oracle_massey_omura(sys_, x, s, t, right=None, key=None):
    """The transcript of one plaintext, entry by entry.  ``right[y][s]`` is
    y*s; ``key(s)`` is Alice's decrypt key, the least uniform key by
    default."""
    S, act = sys_.semigroup, sys_.act.table
    key = key or (lambda k: least_key(S, act, k))
    if right is None and any(S.mul(a, b) != S.mul(b, a) for a, b in product(S.elements, repeat=2)):
        raise PreconditionFailed("commutative", "supply a biact for this semigroup")
    s_inv = key(s)
    if right is None:
        t_inv = key(t)
        m1 = act[s][x]
        m2 = act[t][m1]
        m3 = act[s_inv][m2]
        recovered = act[t_inv][m3]
    else:
        t_inv = oracle_right_key(S, right, t)
        if t_inv is None:
            raise NoDecryptKey(t)
        m1 = act[s][x]
        m2 = right[m1][t]
        m3 = act[s_inv][m2]
        recovered = right[m3][t_inv]
    entries = (
        ("alice", "ciphertext-1", m1),
        ("bob", "ciphertext-2", m2),
        ("alice", "ciphertext-3", m3),
        ("bob", "recovered", recovered),
    )
    return crypto.ProtocolTranscript(entries, recovered, x)


def oracle_elgamal(sys_, x, s, c, d, key=None):
    S, act = sys_.semigroup, sys_.act.table
    key = key or (lambda k: least_key(S, act, k))
    public = S.mul(s, d)
    trace = S.mul(c, s)
    mask = S.mul(c, public)
    k = key(S.mul(trace, d))
    ciphertext = act[mask][x]
    recovered = act[k][ciphertext]
    entries = (
        ("bob", "public-key", public),
        ("alice", "ciphertext", ciphertext),
        ("alice", "key-trace", trace),
        ("bob", "recovered", recovered),
    )
    return crypto.ProtocolTranscript(entries, recovered, x)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def right_mult(S):
    return [[S.mul(x, s) for s in S.elements] for x in S.elements]


def symmetric_group_3():
    perms = sorted(permutations(range(3)))
    return core.build_semigroup(
        [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    )


def row_systems():
    systems = list(verify._system_corpus())
    systems += [(f"modexp-{p}", crypto.modexp_system(p).system) for p in (2, 3)]
    # a non-commutative act on more than one point, for ElGamal
    systems.append(("S3", crypto.locally_free_system(symmetric_group_3())))
    S = fx("Z3E")
    systems.append(("empty", crypto.build_cryptosystem(S, [[] for _ in S.elements])))
    return systems


ROW_SYSTEMS = row_systems()


@pytest.mark.parametrize("name,sys_", ROW_SYSTEMS, ids=[n for n, _ in ROW_SYSTEMS])
def test_every_key_choice_runs_every_plaintext_as_the_oracle_does(name, sys_):
    S, points = sys_.semigroup, sys_.act.points
    for s, t in product(S.elements, repeat=2):
        want = [outcome(oracle_massey_omura, sys_, x, s, t) for x in points]
        assert [outcome(crypto.massey_omura, sys_, x, s, t) for x in points] == want, (s, t)
        if not points:
            # no plaintext is read: the run itself refuses the keys
            assert outcome(crypto.massey_omura_rows, sys_, s, t) == outcome(
                oracle_massey_omura, sys_, 0, s, t
            )
            continue
        # the rows are the transcripts' entries, indexed by plaintext
        assert outcome(crypto.massey_omura_rows, sys_, s, t) == (
            tuple(zip(*[[v for _, _, v in tr.entries] for tr in want]))
            if isinstance(want[0], crypto.ProtocolTranscript)
            else want[0]
        )
    for s, c, d in product(S.elements, repeat=3):
        want = [outcome(oracle_elgamal, sys_, x, s, c, d) for x in points]
        assert [outcome(crypto.elgamal, sys_, x, s, c, d) for x in points] == want, (s, c, d)
        if not points:
            assert outcome(crypto.elgamal_rows, sys_, s, c, d) == outcome(
                oracle_elgamal, sys_, 0, s, c, d
            )
            continue
        (_, _, public), _, (_, _, trace), _ = want[0].entries
        ciphertexts, recovered = zip(*[[v for _, _, v in tr.entries[1::2]] for tr in want])
        assert crypto.elgamal_rows(sys_, s, c, d) == (public, trace, ciphertexts, recovered)


def test_the_biact_run_matches_the_oracle_on_z6():
    S = fx("Z6")
    sys_ = crypto.locally_free_system(S)
    right = right_mult(S)
    biact = crypto.build_biact(sys_, right)
    assert biact.least_right_key == tuple(oracle_right_key(S, right, t) for t in S.elements)
    for s, t in product(S.elements, repeat=2):
        want = [oracle_massey_omura(sys_, x, s, t, right) for x in sys_.act.points]
        assert [crypto.massey_omura(sys_, x, s, t, biact) for x in sys_.act.points] == want
        assert crypto.massey_omura_rows(sys_, s, t, biact) == tuple(
            zip(*[[v for _, _, v in tr.entries] for tr in want])
        )


def test_plaintexts_outside_the_points_are_refused_after_the_keys():
    sys_ = crypto.locally_free_system(fx("CHAIN3"))
    assert sys_.act.carrier == 1
    assert crypto.massey_omura_rows(sys_, 0, 0) == ((0,),) * 4
    for x in (-1, 1):
        with pytest.raises(PreconditionFailed, match="plaintext"):
            crypto.massey_omura(sys_, x, 0, 0)
        with pytest.raises(PreconditionFailed, match="plaintext"):
            crypto.elgamal(sys_, x, 0, 0, 0)


# --- the corpus checks run every (key choice, plaintext) pair -------------------


def spy_runs(monkeypatch):
    """Plaintexts covered by each row entry point, split by biact use."""
    covered = {"plain": 0, "biact": 0}
    for fn_name in ("massey_omura_rows", "elgamal_rows"):
        real = getattr(crypto, fn_name)

        def spy(sys_, *args, _real=real, **kwargs):
            if any(isinstance(a, crypto.BiactTable) for a in (*args, *kwargs.values())):
                covered["biact"] += sys_.act.carrier
            else:
                covered["plain"] += sys_.act.carrier
            return _real(sys_, *args, **kwargs)

        monkeypatch.setattr(crypto, fn_name, spy)
    return covered


def test_the_crypto_suite_covers_every_key_choice_and_plaintext(monkeypatch):
    expected_plain = expected_biact = 0
    for _, sys_ in verify._system_corpus():
        S, rows = sys_.semigroup, sys_.act.table
        # the biact check takes every system that is S acting on itself by
        # left multiplication, on the right by product
        if sys_.act.carrier == S.n and all(
            rows[s][x] == S.mul(s, x) for s, x in product(S.elements, repeat=2)
        ):
            expected_biact += sys_.act.carrier * S.n**2
        if any(S.mul(a, b) != S.mul(b, a) for a, b in product(S.elements, repeat=2)):
            continue
        d = sum(1 for s in S.elements if oracle_uniform_keys(S, rows, s))
        expected_plain += sys_.act.carrier * (d**2 + d**3)
    # 15,767 pairs in all, each once a protocol run of its own: the biact
    # runs of Z3 (27) and Z6 (216)
    assert (expected_plain, expected_biact) == (15524, 243)
    covered = spy_runs(monkeypatch)
    findings = {f.name: f for f in verify.suite_crypto()}
    assert findings["crypto.protocol-roundtrips"].passed
    assert findings["crypto.biact-roundtrip"].passed
    assert covered == {"plain": expected_plain, "biact": expected_biact}


def test_the_key_space_check_asks_for_every_key_space(monkeypatch):
    systems = verify._system_corpus()
    calls = []
    real = crypto.decrypt_key_space
    monkeypatch.setattr(
        crypto, "decrypt_key_space", lambda sys_, x, key: calls.append((x, key)) or real(sys_, x, key)
    )
    assert verify._key_space_violations(systems) is None
    assert len(calls) == sum(sys_.semigroup.n * sys_.act.carrier for _, sys_ in systems)


# --- witness fidelity under injected faults -------------------------------------
#
# Each reference below is the check as a plain scan: x outermost, every key
# choice for each x, Massey-Omura before ElGamal, nothing remembered.


def least_uniform_key(sys_):
    """The least uniform key of each key, read from the act's uniform keys."""
    return lambda k: min(sys_.act.uniform_keys[k])


def reference_roundtrip(name, sys_):
    key = least_uniform_key(sys_)
    decryptable = [s for s, uniform in enumerate(sys_.act.uniform_keys) if uniform]
    for x in sys_.act.points:
        for s, t in product(decryptable, repeat=2):
            if oracle_massey_omura(sys_, x, s, t, key=key).recovered != x:
                return f"{name}: three-pass fails at x={x}, s={s}, t={t}"
        for s, c, d in product(decryptable, repeat=3):
            if oracle_elgamal(sys_, x, s, c, d, key=key).recovered != x:
                return f"{name}: key-trace protocol fails at x={x}"


def reference_biact_roundtrip(name, sys_):
    S = sys_.semigroup
    key = least_uniform_key(sys_)
    for x in sys_.act.points:
        for s, t in product(S.elements, repeat=2):
            if oracle_massey_omura(sys_, x, s, t, right_mult(S), key).recovered != x:
                return f"{name}: biact three-pass fails at x={x}, s={s}, t={t}"


def reference_key_space(name, sys_):
    S, act = sys_.semigroup, sys_.act
    band = core.classify_idempotents(S).is_band
    inverse = core.is_inverse_semigroup(S)
    group = core.is_group(S)
    for s in S.elements:
        W_s = core.weak_inverses(S, s)
        if inverse:
            (s_inv,) = core.inverse_sets(S, s).V
        for x in act.points:
            K = crypto.decrypt_key_space(sys_, x, s)
            S_x = act.stabilizers[x]
            triple = core.set_mul(S, S_x, W_s, act.stabilizers[act.act(s, x)])
            if closures.omega_m(S, K) != K:
                part = "key-space-m-closed"
            elif not closures.omega_m(S, triple) <= K:
                part = "key-space-contains-closed-triple"
            elif band and closures.omega_h(S, triple) != K:
                part = "key-space-equals-h-closed-triple"
            elif inverse and closures.omega_h(S, core.set_mul(S, S_x, {s_inv})) != K:
                part = "key-space-inverse-form"
            elif group and not (core.set_mul(S, S_x, {s_inv}) == K and len(K) == len(S_x)):
                part = "key-space-group-form"
            else:
                continue
            return f"{name}: {part} fails (s={s} x={x})"


def with_wrong_key(sys_, k, wrong):
    """A system on a copy of the act whose uniform keys of k are ``wrong`` alone."""
    act = dataclasses.replace(sys_.act)
    uniform = list(sys_.act.uniform_keys)
    uniform[k] = frozenset({wrong})
    act.__dict__["uniform_keys"] = tuple(uniform)
    return crypto.Cryptosystem(act)


def roundtrip_fidelity():
    """(check, reference) witness pairs for corrupted act rows and wrong
    uniform keys on the commutative systems of the corpus."""
    pairs = []
    for name, sys_ in verify._system_corpus():
        if not sys_.semigroup.structure.is_commutative:
            continue
        S, rows = sys_.semigroup, sys_.act.table
        for seed in range(6 if sys_.act.carrier > 1 else 0):
            rng = random.Random(f"rows-{name}:{seed}")
            bad = [list(r) for r in rows]
            s, x = rng.randrange(S.n), rng.randrange(len(bad[0]))
            bad[s][x] = rng.choice([v for v in range(len(bad[0])) if v != bad[s][x]])
            faulty = crypto.Cryptosystem(acts.PartialAct(S, tuple(map(tuple, bad))))
            pairs.append(
                (
                    outcome(verify._roundtrip_violations, [(name, faulty)]),
                    outcome(reference_roundtrip, name, faulty),
                )
            )
        for k in S.elements:
            faulty = with_wrong_key(sys_, k, (min(sys_.act.uniform_keys[k]) + 1) % S.n)
            pairs.append(
                (verify._roundtrip_violations([(name, faulty)]), reference_roundtrip(name, faulty))
            )
    return pairs


def biact_fidelity():
    """Wrong uniform keys, and systems whose act has one corrupted entry,
    each with the true key table and with the true biact moved onto it."""
    name, S = "Z6", fx("Z6")
    sys_ = crypto.locally_free_system(S)
    pairs = []
    for k, shift in product(S.elements, (1, 2)):
        faulty = with_wrong_key(sys_, k, (min(sys_.act.uniform_keys[k]) + shift) % S.n)
        pairs.append(
            (
                verify._biact_roundtrip_violations([(name, faulty)]),
                reference_biact_roundtrip(name, faulty),
            )
        )
    real = crypto.build_biact
    biact = real(sys_, right_mult(S))
    try:
        # build_biact would refuse the corrupted act as incompatible
        crypto.build_biact = lambda system, right: dataclasses.replace(biact, system=system)
        for seed in range(12):
            rng = random.Random(f"biact-left-{seed}")
            bad = [list(r) for r in sys_.act.table]
            s, x = rng.randrange(S.n), rng.randrange(S.n)
            bad[s][x] = rng.choice([v for v in S.elements if v != bad[s][x]])
            faulty = crypto.Cryptosystem(acts.PartialAct(S, tuple(map(tuple, bad))))
            faulty.act.__dict__["uniform_keys"] = sys_.act.uniform_keys
            pairs.append(
                (
                    verify._biact_roundtrip_violations([(name, faulty)]),
                    reference_biact_roundtrip(name, faulty),
                )
            )
    finally:
        crypto.build_biact = real
    return pairs


def key_space_fidelity():
    """Key spaces wrong at one (s, x) only, where an earlier point has the
    same stabilizer and so does its image under s."""
    pairs = []
    real = crypto.decrypt_key_space
    try:
        for name, sys_ in verify._system_corpus():
            S, act = sys_.semigroup, sys_.act
            stab = act.stabilizers
            for s in S.elements:
                shared = [
                    x
                    for x in act.points
                    if any(
                        (stab[y], stab[act.act(s, y)]) == (stab[x], stab[act.act(s, x)])
                        for y in range(x)
                    )
                ]
                if not shared:
                    continue
                x_late = shared[-1]
                K = real(sys_, x_late, s)
                extra = min(set(S.elements) - K, default=None)
                wrong = K | {extra} if extra is not None else K - {min(K)}

                def faulty(sys_arg, x, key, s=s, x_late=x_late, wrong=wrong):
                    if (x, key) == (x_late, s):
                        return frozenset(wrong)
                    return real(sys_arg, x, key)

                crypto.decrypt_key_space = faulty
                pairs.append(
                    (
                        verify._key_space_violations([(name, sys_)]),
                        reference_key_space(name, sys_),
                    )
                )
                crypto.decrypt_key_space = real
    finally:
        crypto.decrypt_key_space = real
    return pairs


FIDELITY = {
    "roundtrip": roundtrip_fidelity,
    "biact": biact_fidelity,
    "key-space": key_space_fidelity,
}


@pytest.mark.parametrize("check", FIDELITY)
def test_rewritten_checks_name_the_witness_of_the_plain_scan(check):
    pairs = FIDELITY[check]()
    for got, want in pairs:
        assert got == want
    failing = [want for _, want in pairs if want is not None]
    assert len(failing) >= len(pairs) // 2, failing
    if check != "biact":
        # some witness lies past the first point (a corrupted biact row is
        # met at x=0 by some key choice, but not by the first one)
        assert any("x=0" not in want for want in failing), failing


def test_rewritten_checks_name_the_witness_of_the_plain_scan_under_optimize():
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")
        + (os.pathsep + path if path else ""),
    )
    done = subprocess.run(
        [
            sys.executable,
            "-O",
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            f"{Path(__file__).name}::test_rewritten_checks_name_the_witness_of_the_plain_scan",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).parent,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(FIDELITY)} passed" in done.stdout

"""The explicit bijections between Wilf-equivalent avoidance classes,
each implemented as literal case dispatch mirroring its proof, plus an
exhaustive verification harness.

Every map preserves length.  Inverses are not implemented: bijectivity is
certified by injectivity plus a cardinality match against the codomain
class, which doubles as a desk-scale re-proof of each equivalence.  One
loop, _certify, does this for all nine maps: verify_bijection feeds it
the eight class maps, verify_tuple_bijection the staircase-tuple map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .core import (
    Word,
    _check_length,
    _grow,
    bounded_jump_words,
    canonical_sequence,
    format_sequence,
    is_ascent_sequence,
    is_staircase,
    jump_count,
    staircase_words,
)
from .patterns import PatternSet, avoiders, contains, count_avoiders
from .recur import jump_distribution


class MapCaseError(ValueError):
    """An input matched no case of a map's decomposition.

    The decompositions are proved exhaustive, so any raise here converts a
    gap in the case analysis into a concrete counterexample.
    """

    def __init__(self, map_name: str, word: Word, detail: str):
        self.word = tuple(word)
        super().__init__(
            f"{map_name}: no case applies to {format_sequence(word)} ({detail})"
        )


def _runs(word: Word) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for a in word:
        if out and out[-1][0] == a:
            out[-1][1] += 1
        else:
            out.append([a, 1])
    return [(a, c) for a, c in out]


def _is_nondecreasing(word: Word) -> bool:
    return all(a <= b for a, b in zip(word, word[1:]))


def _alternating_block(amounts: Sequence[int]) -> list[int]:
    """1^{a_1} 0^{a_2} 1^{a_3} ...: run v gets letter 1 for odd v, 0 for
    even v."""
    out: list[int] = []
    for v, a in enumerate(amounts, start=1):
        out.extend([1 if v % 2 else 0] * a)
    return out


def _c_encode(word: Word, r: int) -> list[int]:
    """Encode a staircase word on the alphabet {0, r}: the first letter
    maps to r, every level step to r, every increment step to 0.
    """
    out = [r]
    for prev, cur in zip(word, word[1:]):
        out.append(r if cur == prev else 0)
    return out


def _parse_single_zero_prefix(name: str, word: Word):
    """Split a descent-containing 0010-avoider into its canonical head
    0 1^{a_1} ... j^{a_j} 0^r and tail.  Returns (amounts, r, tail).
    """
    rr = _runs(word)
    if rr[0] != (0, 1):
        raise MapCaseError(name, word, "expected a single leading zero")
    amounts: list[int] = []
    i = 1
    j = 0
    while i < len(rr) and rr[i][0] == j + 1:
        j += 1
        amounts.append(rr[i][1])
        i += 1
    if j < 1 or i >= len(rr) or rr[i][0] != 0:
        raise MapCaseError(name, word, "expected a climb 1..j then a zero run")
    r = rr[i][1]
    tail: list[int] = []
    for a, c in rr[i + 1 :]:
        tail.extend([a] * c)
    return amounts, r, tail


def map_0010_to_0100(word: Word) -> tuple[int, ...]:
    """Swap the head 0 1^{a_1}...j^{a_j} 0^r into 0^r 1^{a_1}...j^{a_j} 0;
    nondecreasing inputs are fixed."""
    if _is_nondecreasing(word):
        return tuple(word)
    amounts, r, tail = _parse_single_zero_prefix("0010-to-0100", word)
    out = [0] * r
    for v, a in enumerate(amounts, start=1):
        out.extend([v] * a)
    out.append(0)
    out.extend(tail)
    return tuple(out)


def map_0010_to_0110(word: Word) -> tuple[int, ...]:
    if _is_nondecreasing(word):
        if not word:
            return ()
        rr = _runs(word)
        if [a for a, _ in rr] != list(range(len(rr))):
            raise MapCaseError("0010-to-0110", word, "nondecreasing but gapped")
        out = [0] * rr[0][1]
        for v, a in rr[1:]:
            out.append(v)
            out.extend([0] * (a - 1))
        return tuple(out)
    amounts, r, tail = _parse_single_zero_prefix("0010-to-0110", word)
    j = len(amounts)
    out = [0] * r
    for v in range(1, j):
        out.append(v)
        out.extend([0] * (amounts[v - 1] - 1))
    if j in tail:
        out.append(j)
        out.extend([0] * amounts[j - 1])
    else:
        out.extend([j] * (amounts[j - 1] + 1))
    out.extend(tail)
    return tuple(out)


def map_0010_to_0123(word: Word) -> tuple[int, ...]:
    name = "0010-to-0123"
    if _is_nondecreasing(word):
        if not word:
            return ()
        rr = _runs(word)
        if [a for a, _ in rr] != list(range(len(rr))):
            raise MapCaseError(name, word, "nondecreasing but gapped")
        out = [0] * rr[0][1]
        for _, a in rr[1:]:
            out.append(1)
            out.extend([0] * (a - 1))
        return tuple(out)
    amounts, r, tail = _parse_single_zero_prefix(name, word)
    j = len(amounts)
    s = 0
    while s < len(tail) and tail[s] == j:
        s += 1
    rest = tail[s:]
    if not rest:
        # Terminal 0^r j^s: pair with 0^{s+1} 1^r c_2(1^{a_1}...j^{a_j}).
        stair: list[int] = []
        for v, a in enumerate(amounts, start=1):
            stair.extend([v] * a)
        return tuple([0] * (s + 1) + [1] * r + _c_encode(stair, 2))
    if rest[0] == j + 1 and is_staircase(rest):
        # Jump-free tail j^s rho with rho a staircase word from j+1.
        alt = _alternating_block(amounts)
        if j % 2 == 0:
            out = [0] * (r + 1) + alt + [1] * s + _c_encode(rest, 2)
        else:
            out = [0] + alt + [0] * r + [1] * s + _c_encode(rest, 2)
        return tuple(out)
    # Tail j^t (j+1)^{a_{j+1}}...l^{a_l} alpha with a jump of two into alpha.
    t = s
    if t < 1:
        raise MapCaseError(name, word, "jumped tail must start at the run letter")
    rest_runs = _runs(rest)
    climb: list[int] = []
    cur = j
    k = 0
    while k < len(rest_runs) and rest_runs[k][0] == cur + 1:
        cur += 1
        climb.append(rest_runs[k][1])
        k += 1
    if k >= len(rest_runs) or rest_runs[k][0] != cur + 2:
        raise MapCaseError(name, word, "tail neither staircase nor a 2-jump")
    alpha: list[int] = []
    for a, c in rest_runs[k:]:
        alpha.extend([a] * c)
    if not is_staircase(alpha):
        raise MapCaseError(name, word, "section after the jump is not staircase")
    ell = cur
    full_amounts = amounts + climb
    alt = _alternating_block(full_amounts)
    sub = j // 2 + 2 if j % 2 == 0 else (j + 5) // 2
    hi = ell // 2 + 2 if ell % 2 == 0 else (ell + 5) // 2
    if not 3 <= sub <= hi:
        raise MapCaseError(name, word, f"encoder subscript {sub} out of range")
    if ell % 2 == 0 and j % 2 == 0:
        out = [0] * (t + 1) + alt + [1] * r + _c_encode(alpha, sub)
    elif ell % 2 == 0:
        out = [0] + alt + [1] * r + [0] * t + _c_encode(alpha, sub)
    elif j % 2 == 0:
        out = [0] * (t + 1) + alt + [0] * r + _c_encode(alpha, sub)
    else:
        out = [0] + alt + [0] * r + [1] * t + _c_encode(alpha, sub)
    return tuple(out)


def map_1100_to_1000(word: Word) -> tuple[int, ...]:
    """Four-case rewrite around the smallest repeated positive letter j,
    with two further cases when a zero follows the j-runs."""
    name = "1100-to-1000"
    n = len(word)
    i = 0
    while i < n and word[i] == 0:
        i += 1
    a0 = i
    amounts: list[int] = []  # a_1, a_2, ...: 1 + zeros after first occurrence
    v = 0
    repeat = None
    while i < n:
        if word[i] != v + 1:
            raise MapCaseError(name, word, f"expected first occurrence of {v + 1}")
        v += 1
        i += 1
        z = 0
        while i + z < n and word[i + z] == 0:
            z += 1
        i += z
        amounts.append(1 + z)
        if i < n and word[i] == v:
            repeat = v
            break
    if repeat is None:
        # No repeated positive letter: interleave becomes nondecreasing.
        out = [0] * a0
        for u, a in enumerate(amounts, start=1):
            out.extend([u] * a)
        return tuple(out)
    j = repeat
    s = 0
    while i + s < n and word[i + s] == j:
        s += 1
    rest = list(word[i + s :])
    aj = amounts[-1]
    prefix = [0] * a0
    for u, a in enumerate(amounts[:-1], start=1):
        prefix.extend([u] * a)
    if 0 not in rest:
        if aj >= 2 and s >= 2:
            out = prefix + [j] * (aj - 1) + [0, 0] + [j] * (s - 1) + rest
        elif aj >= 2:
            out = prefix + [j, 0] + [j] * (aj - 1) + rest
        elif s >= 2:
            out = prefix + [j] * (s - 1) + [0, 0] + rest
        else:
            out = prefix + [j, 0] + rest
        return tuple(out)
    z = rest.index(0)
    sigma, rho = rest[:z], rest[z + 1 :]
    if 0 in rho:
        raise MapCaseError(name, word, "more than one zero after the j-runs")
    if aj == 1 and not sigma:
        out = prefix + [j] * (s + 1) + [0] + rho
    else:
        out = prefix + [j] * s + [0] + [j] * (aj - 1) + sigma + [0] + rho
    return tuple(out)


def _units_1001(name: str, word: Word):
    """Greedy unit decomposition of a {021,1001}-avoider: a leading zero
    run, then blocks a^alpha 0 a^beta 0^gamma or a^alpha 0^gamma with
    strictly increasing letters.  beta == 0 encodes the second form.
    """
    n = len(word)
    i = 0
    while i < n and word[i] == 0:
        i += 1
    lead = i
    units: list[tuple[int, int, int, int]] = []
    prev_letter = 0
    while i < n:
        a = word[i]
        if a <= prev_letter:
            raise MapCaseError(name, word, f"unit letters not increasing at {i}")
        alpha = 0
        while i < n and word[i] == a:
            alpha += 1
            i += 1
        z = 0
        while i + z < n and word[i + z] == 0:
            z += 1
        if i + z < n and word[i + z] == a:
            if z != 1:
                raise MapCaseError(name, word, "letter reoccurs across 2+ zeros")
            i += 1
            beta = 0
            while i < n and word[i] == a:
                beta += 1
                i += 1
            gamma = 0
            while i < n and word[i] == 0:
                gamma += 1
                i += 1
            units.append((a, alpha, beta, gamma))
        else:
            i += z
            units.append((a, alpha, 0, z))
        prev_letter = a
    return lead, units


def map_1001_to_1011(word: Word) -> tuple[int, ...]:
    """Rewrite each unit i^a 0 i^b 0^c as i^a 0^b i 0^c."""
    lead, units = _units_1001("1001-to-1011", word)
    out = [0] * lead
    for a, alpha, beta, gamma in units:
        if beta:
            out.extend([a] * alpha + [0] * beta + [a] + [0] * gamma)
        else:
            out.extend([a] * alpha + [0] * gamma)
    return tuple(out)


def map_1001_to_1101(word: Word) -> tuple[int, ...]:
    """Rewrite each unit i^a 0 i^b 0^c as i 0^a i^b 0^c."""
    lead, units = _units_1001("1001-to-1101", word)
    out = [0] * lead
    for a, alpha, beta, gamma in units:
        if beta:
            out.extend([a] + [0] * alpha + [a] * beta + [0] * gamma)
        else:
            out.extend([a] * alpha + [0] * gamma)
    return tuple(out)


def map_1020_to_1022(word: Word) -> tuple[int, ...]:
    """Past the rightmost zero (when a positive letter precedes it),
    flatten each run a^t with a >= 2 into a 0^{t-1}."""
    letters = list(word)
    zero_runs = sum(1 for a, _ in _runs(letters) if a == 0)
    if zero_runs < 2:
        return tuple(letters)
    last0 = max(i for i, a in enumerate(letters) if a == 0)
    if last0 == len(letters) - 1:
        return tuple(letters)
    out = letters[: last0 + 1]
    for a, t in _runs(letters[last0 + 1 :]):
        if a >= 2:
            out.extend([a] + [0] * (t - 1))
        else:
            out.extend([a] * t)
    return tuple(out)


def map_1200_to_1220(word: Word) -> tuple[int, ...]:
    """Within the zero-free section starting at the first letter greater
    than 1, flatten each run w^b into w 0^{b-1}; binary inputs and inputs
    with no later zero are fixed."""
    letters = list(word)
    p = next((i for i, a in enumerate(letters) if a > 1), None)
    if p is None:
        return tuple(letters)
    z = next((i for i in range(p + 1, len(letters)) if letters[i] == 0), None)
    if z is None:
        return tuple(letters)
    out = letters[:p]
    for a, b in _runs(letters[p:z]):
        out.extend([a] + [0] * (b - 1))
    out.extend(letters[z:])
    return tuple(out)


@dataclass(frozen=True)
class Bijection:
    name: str
    domain: PatternSet
    codomain: PatternSet
    func: Callable[[Word], tuple[int, ...]]


def _bij(name: str, dom: str, cod: str, func) -> Bijection:
    return Bijection(name, PatternSet.of("021", dom), PatternSet.of("021", cod), func)


BIJECTIONS: dict[str, Bijection] = {
    b.name: b
    for b in (
        _bij("0010-to-0100", "0010", "0100", map_0010_to_0100),
        _bij("0010-to-0110", "0010", "0110", map_0010_to_0110),
        _bij("0010-to-0123", "0010", "0123", map_0010_to_0123),
        _bij("1100-to-1000", "1100", "1000", map_1100_to_1000),
        _bij("1001-to-1011", "1001", "1011", map_1001_to_1011),
        _bij("1001-to-1101", "1001", "1101", map_1001_to_1101),
        _bij("1020-to-1022", "1020", "1022", map_1020_to_1022),
        _bij("1200-to-1220", "1200", "1220", map_1200_to_1220),
    )
}


def apply_map(name: str, word: Word) -> tuple[int, ...]:
    """Apply a registered bijection, pre-checking domain membership."""
    bij = BIJECTIONS[name]
    letters = tuple(word)
    if not is_ascent_sequence(letters):
        raise ValueError(f"not an ascent sequence: {format_sequence(letters)}")
    for pat in bij.domain:
        if contains(letters, pat):
            raise ValueError(
                f"{format_sequence(letters)} is outside the domain class "
                f"(contains {pat})"
            )
    return bij.func(letters)


@dataclass
class BijectionReport:
    """Outcome of exhaustively checking one map at one length."""

    map_id: str
    n: int
    domain_size: int
    image_size: int
    codomain_size: int
    injective: bool
    image_in_codomain: bool
    failures: list[dict] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return (
            self.injective
            and self.image_in_codomain
            and self.domain_size == self.codomain_size
            and not self.failures
        )

    def to_json_dict(self) -> dict:
        return {
            "map": self.map_id,
            "n": self.n,
            "domain_size": self.domain_size,
            "image_size": self.image_size,
            "codomain_size": self.codomain_size,
            "injective": self.injective,
            "image_in_codomain": self.image_in_codomain,
            "success": self.success,
            "failures": self.failures,
        }


def _certify(map_id, n, domain, func, problem_of, codomain_size, show) -> BijectionReport:
    """Apply func to every domain element and certify the images.

    problem_of(x, image) names why an image lies outside the codomain, or
    returns None; show(x) renders an input for its failure record.  An
    image outside the codomain is not counted in image_size; a collision
    is.
    """
    images: set[tuple[int, ...]] = set()
    failures: list[dict] = []
    domain_size = 0
    injective = True
    image_in_codomain = True
    for x in domain:
        domain_size += 1
        try:
            img = func(x)
        except MapCaseError as exc:
            failures.append({"input": show(x), "problem": str(exc)})
            image_in_codomain = False
            continue
        problem = problem_of(x, img)
        if problem is not None:
            image_in_codomain = False
        elif img in images:
            injective = False
            problem = "image collides with an earlier one"
        else:
            images.add(img)
            continue
        failures.append(
            {"input": show(x), "image": canonical_sequence(img), "problem": problem}
        )
    return BijectionReport(
        map_id=map_id,
        n=n,
        domain_size=domain_size,
        image_size=len(images),
        codomain_size=codomain_size,
        injective=injective,
        image_in_codomain=image_in_codomain,
        failures=failures,
    )


def verify_bijection(name: str, n: int) -> BijectionReport:
    """Apply a map to the entire domain class at length n and certify
    injectivity, codomain membership and the cardinality match.

    Membership is a lookup in the walked codomain, whose size must equal
    the layer count (ArithmeticError otherwise); only a miss is diagnosed
    pattern by pattern.
    """
    bij = BIJECTIONS[name]
    codomain_size = count_avoiders(bij.codomain, n).counts[n]
    codomain = set(avoiders(n, bij.codomain))
    if len(codomain) != codomain_size:
        raise ArithmeticError(
            f"the walk found {len(codomain)} codomain words of length {n}, "
            f"the count says {codomain_size}"
        )

    def problem_of(word, img):
        if img in codomain:
            return None
        if len(img) != n:
            return "image has wrong length"
        if not is_ascent_sequence(img):
            return "image is not an ascent sequence"
        hit = next((p for p in bij.codomain if contains(img, p)), None)
        if hit is None:
            raise ArithmeticError(
                f"image {format_sequence(img)} is outside the walked codomain "
                "yet avoids every codomain pattern"
            )
        return f"image contains {hit}"

    domain = avoiders(n, bij.domain)
    return _certify(
        name, n, domain, bij.func, problem_of, codomain_size, canonical_sequence
    )


@dataclass(frozen=True)
class StaircaseTuple:
    """r+1 staircase words, the first nonempty, all starting at 0."""

    words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ws = tuple(tuple(w) for w in self.words)
        object.__setattr__(self, "words", ws)
        if not ws or not ws[0]:
            raise ValueError("the first word must be nonempty")
        for w in ws:
            if w and (w[0] != 0 or not is_staircase(w)):
                raise ValueError(f"not a staircase word from 0: {list(w)!r}")

    @property
    def r(self) -> int:
        return len(self.words) - 1


def tuple_to_sequence(t: StaircaseTuple) -> tuple[int, ...]:
    """Concatenate the words after displacing each nonempty one above the
    running maximum by one more than the count of interleaving empty
    slots; the result is nondecreasing, starts at 0, and acquires exactly
    one jump per skipped slot.
    """
    out = list(t.words[0])
    prev_max = out[-1]
    prev_i = 0
    for idx in range(1, len(t.words)):
        w = t.words[idx]
        if not w:
            continue
        shift = idx - prev_i + prev_max + 1
        seg = [v + shift for v in w]
        out.extend(seg)
        prev_max = seg[-1]
        prev_i = idx
    return tuple(out)


def staircase_tuples(n: int, r: int) -> Iterator[StaircaseTuple]:
    """All (r+1)-tuples of staircase words from 0 (first nonempty, the
    rest possibly empty) whose lengths sum to n.
    """
    _check_length(n)
    _check_length(r, "r")
    if n == 0:
        return

    def moves(state):
        # A tuple is a word of r + 1 letters, each a staircase word; the
        # last slot takes the rest of the length.
        slot, left = state
        first = 1 if slot == 0 else 0
        for q in range(left if slot == r else first, left + 1):
            for w in staircase_words(q) if q else [()]:
                yield w, (slot + 1, left - q)

    for words in _grow(r + 1, (0, n), moves):
        yield StaircaseTuple(words)


def verify_tuple_bijection(r: int, n: int) -> BijectionReport:
    """Check that tuple_to_sequence maps the length-n staircase tuples
    bijectively onto the nondecreasing words from 0 with at most r jumps,
    and that the image's jump count equals the largest nonempty index.
    The codomain's size must equal the jump DP's (ArithmeticError
    otherwise).
    """
    codomain = set(bounded_jump_words(n, r))
    if n >= 1:
        counted = sum(jump_distribution(n, r).row(n))
        if len(codomain) != counted:
            raise ArithmeticError(
                f"the generator gave {len(codomain)} words of length {n} with "
                f"at most {r} jumps, the jump DP counts {counted}"
            )

    def problem_of(t, img):
        if img not in codomain:
            return "image outside the jump-bounded set"
        expected_jumps = max((i for i in range(1, r + 1) if t.words[i]), default=0)
        if jump_count(img) != expected_jumps:
            return "jump count differs from the largest nonempty index"
        return None

    return _certify(
        f"tuple-jumps(r={r})", n, staircase_tuples(n, r), tuple_to_sequence,
        problem_of, len(codomain), lambda t: [list(w) for w in t.words],
    )

"""Reference implementations the real code is checked against.

Everything here is written naively and independently of the package
internals: explicit loops, brute-force enumeration, fixed-point
iteration.  Slow is fine; these only run in tests.
"""

from itertools import product

from smsc.catalogue import MAX_TTL_TICKS, CellProfile
from smsc.policy import AttributePair, DecisionRequest, Effect
from smsc.sim import Simulator
from smsc.wire import field


# --- rule matching and evaluation ----------------------------------------


def naive_action_matches(rule_action: str, action: str) -> bool:
    return rule_action == "*" or rule_action == action


def naive_resource_matches(rule_resource: str, resource_id: str) -> bool:
    if rule_resource.endswith("*"):
        return resource_id.startswith(rule_resource[:-1])
    return rule_resource == resource_id


def naive_subject_matches(atoms, attrs) -> bool:
    pairs = {(p.name, p.value) for p in attrs}
    for name, allowed in atoms:
        satisfied = False
        for n, v in pairs:
            if n == name and v in allowed:
                satisfied = True
        if not satisfied:
            return False
    return True


def naive_rule_matches(rule, request) -> bool:
    if request.context not in rule.contexts:
        return False
    if not naive_action_matches(rule.action, request.action):
        return False
    if not naive_resource_matches(rule.resource, request.resource_id):
        return False
    return naive_subject_matches(rule.subject.atoms, request.subject_attrs)


def naive_evaluate(rules, request) -> str:
    """Deny-overrides combining; returns the verdict as a string."""
    effects = []
    for rule in rules:
        if naive_rule_matches(rule, request):
            effects.append(rule.effect)
    for effect in effects:
        if effect == Effect.DENY:
            return "Deny"
    if effects:
        return "Permit"
    return "NotApplicable"


def naive_cited_ids(rules, request) -> tuple:
    """Ids of the matching rules whose effect carried the verdict, sorted."""
    verdict = naive_evaluate(rules, request)
    if verdict == "NotApplicable":
        return ()
    winning = Effect.DENY if verdict == "Deny" else Effect.PERMIT
    ids = []
    for rule in rules:
        if rule.effect == winning and naive_rule_matches(rule, request):
            ids.append(rule.id)
    return tuple(sorted(ids))


def naive_first_repeat(rules):
    """Index of the first rule whose id an earlier rule already has, or None."""
    ids = [rule.id for rule in rules]
    for i in range(len(ids)):
        if ids[i] in ids[:i]:
            return i
    return None


def naive_assess_impact(rules, package, regression):
    """(flipped cases in regression order, first protected flip or None).

    Replays every case over the whole rule set before and after the
    package; only rule packages change the rule set.
    """
    before = list(rules.values())
    kind = package.kind.value
    if kind == "RuleAdd":
        after = [r for r in before if r.id != package.payload.id] + [package.payload]
    elif kind == "RuleRemove":
        after = [r for r in before if r.id != package.payload]
    else:
        after = before
    flipped = []
    blocking = None
    for case in regression:
        if naive_evaluate(before, case.request) != naive_evaluate(after, case.request):
            flipped.append(case)
            if case.protected and blocking is None:
                blocking = case
    return tuple(flipped), blocking


# --- delegation closure ---------------------------------------------------


def fixpoint_delegations(subject, base_attrs, assertions, roots, context):
    """Iterate-to-fixpoint version of the delegation closure.

    Holdings map (principal, attr) to the best remaining hop depth seen.
    A pass that changes nothing means we are done.
    """
    holdings = {}
    for grant in roots:
        key = (grant.principal, grant.attr)
        if holdings.get(key, -1) < grant.depth:
            holdings[key] = grant.depth
    changed = True
    while changed:
        changed = False
        for a in assertions:
            if context not in a.contexts:
                continue
            issuer_depth = holdings.get((a.issuer, a.attr), -1)
            if issuer_depth <= 0:
                continue
            conferred = min(a.depth, issuer_depth - 1)
            key = (a.subject, a.attr)
            if holdings.get(key, -1) < conferred:
                holdings[key] = conferred
                changed = True
    gained = {attr for (who, attr) in holdings if who == subject}
    return frozenset(base_attrs) | gained


# --- conflict enumeration -------------------------------------------------


def enumerate_conflicts(rules, spec):
    """All opposite-effect pairs satisfiable by a total single-valued
    assignment over the declared universes, as (permit_id, deny_id)."""
    names = sorted(spec.domains)
    value_lists = [spec.domains[n] for n in names]
    requests = []
    for context in spec.contexts:
        for action in spec.actions:
            for resource in spec.resources:
                for combo in product(*value_lists):
                    attrs = frozenset(
                        AttributePair(n, v) for n, v in zip(names, combo)
                    )
                    requests.append(
                        DecisionRequest(attrs, action, resource, context, 0)
                    )
    found = set()
    ordered = sorted(rules, key=lambda r: r.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a.effect == b.effect:
                continue
            for request in requests:
                if naive_rule_matches(a, request) and naive_rule_matches(b, request):
                    permit, deny = (a, b) if a.effect == Effect.PERMIT else (b, a)
                    found.add((permit.id, deny.id))
                    break
    return found


# --- topology -------------------------------------------------------------


def naive_neighbors(links, cell_id):
    """Every cell sharing a link with ``cell_id``, by a scan of all links."""
    out = []
    for link in links:
        if link.a == cell_id:
            out.append(link.b)
        elif link.b == cell_id:
            out.append(link.a)
    return sorted(out)


# --- anti-entropy ---------------------------------------------------------


def naive_digest_reply(packages, marks):
    """Wire form of every consumed package whose seq is above the peer's
    mark for its origin (-1 when the peer names none), in (origin, seq)
    order."""
    out = []
    for package in sorted(packages, key=lambda p: (p.origin, p.seq)):
        if package.seq > marks.get(package.origin, -1):
            out.append(package.to_wire())
    return out


# --- simulator stepping ---------------------------------------------------


class NaiveStepping(Simulator):
    """A simulator that calls ``on_tick`` on every cell on every tick, in
    id order, instead of only on the cells whose ``due_tick`` is the tick."""

    def _tick_due_cells(self, tick):
        for cell_id in sorted(self.cells):
            self.cells[cell_id].on_tick(tick)


# --- catalogue trust ------------------------------------------------------


def naive_trust(profile, policy):
    """Per context of the profile: whether the policy names the context and
    the profile advertises every capability the policy requires there."""
    trusted = {}
    for context in profile.contexts:
        ok = context in policy
        if ok:
            for capability in policy[context]:
                if capability not in profile.capabilities:
                    ok = False
        trusted[context] = ok
    return trusted


# --- advert nonces ----------------------------------------------------------


class NaiveDiscovery:
    """A cell's peers kept in two tables: the profile and last-seen tick of
    each peer, and beside it the nonce of the last advert accepted from
    it.  An expiry drops a peer from both."""

    def __init__(self, owner, trust_policy):
        self.owner = owner
        self.trust_policy = trust_policy
        self.seen = {}
        self.last_nonce = {}

    def advert(self, profile, nonce, now):
        peer = profile.cell_id
        if peer == self.owner:
            return "self-ignored"
        if nonce <= self.last_nonce.get(peer, -1):
            return "stale-nonce"
        self.last_nonce[peer] = nonce
        self.seen[peer] = (profile, now)
        return "accepted"

    def upsert(self, profile, now):
        self.seen[profile.cell_id] = (profile, now)

    def expire(self, now):
        for peer, (profile, seen) in list(self.seen.items()):
            if seen + min(profile.ttl_ticks, MAX_TTL_TICKS) < now:
                del self.seen[peer]
                self.last_nonce.pop(peer, None)

    def contents(self):
        """Per peer: (profile, expiry tick, trust map, last nonce or -1)."""
        return {
            peer: (profile, seen + min(profile.ttl_ticks, MAX_TTL_TICKS) + 1,
                   naive_trust(profile, self.trust_policy),
                   self.last_nonce.get(peer, -1))
            for peer, (profile, seen) in self.seen.items()
        }


def parse_every_advert(catalogue, owner, body, now):
    """The advert handler with no refresh screen: every advert's profile is
    parsed anew, then its sender and nonce are checked against the
    catalogue.  Returns the outcome's value."""
    nonce = field(body, "nonce", "advert", int)
    profile = CellProfile.from_wire(body.get("profile"))
    if profile.cell_id == owner:
        return "self-ignored"
    entry = catalogue.get(profile.cell_id)
    if nonce <= (-1 if entry is None else entry.nonce):
        return "stale-nonce"
    catalogue.upsert(profile, now, nonce)
    return "accepted"

"""Reference implementations the real code is checked against.

Everything here is written naively and independently of the package
internals: explicit loops, brute-force enumeration, fixed-point
iteration.  Slow is fine; these only run in tests.
"""

from itertools import product

from smsc.policy import AttributePair, DecisionRequest, Effect


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


# --- bus filters ----------------------------------------------------------


def segment_filter_matches(pattern: str, topic: str) -> bool:
    p_segments = pattern.split(".")
    t_segments = topic.split(".")
    if p_segments[-1] == "*":
        head = p_segments[:-1]
        return len(t_segments) > len(head) and t_segments[: len(head)] == head
    return p_segments == t_segments


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

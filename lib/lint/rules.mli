(** The seven concurrency-discipline rules, as a static pass over a parsed
    implementation.  What each rule enforces — and the approximations the
    pass knowingly makes — in one place:

    {b L1 — backend confinement.}  Algorithm code must reach shared memory
    only through the [M : Mem_intf.S] functor argument.  Flagged: any
    identifier path containing [Atomic] or [Mutex] (local [module X = Atomic]
    aliases are resolved, chained aliases included); [open]/[include] of
    those modules (after which raw uses would be invisible, so the open
    itself is the finding); mutable record fields in type declarations;
    record-field assignment [e.f <- v]; and [ref] allocations that escape a
    local [let x = ref e] binder.  Allowed: [let]-bound local refs, [!], [:=]
    and array element writes — the thread-local temporary idiom of the
    skiplists, invisible to schedules.  Mentions in comments and string
    literals never flag (the grep lint's false-positive class).

    {b L2 — named-guard discipline.}  Any identifier path containing the
    [Naming] module must occur under a guard mentioning an identifier whose
    last component is [named] — the then-branch of [if M.named then ...] or
    a [when M.named] match guard — so the real backend never builds step
    names (the PR 2 zero-allocation contract).

    {b L3 — static lock pairing.}  Within each function body (nested
    [let rec attempt ... in] loops included), every syntactic [M.lock]
    acquisition (any single-module qualifier; [M.try_lock] in an [if]
    condition counts on the then-branch, [if not (M.try_lock ...)] on the
    else-branch — and, through the summary pass, so does a call to a local
    [\[@acquires\]]-tagged wrapper) must be released by [M.unlock] on every
    syntactic exit.  Unlocks inside [Fun.protect ~finally:...] count on all
    exits.  Branches that disagree while acquiring, and loop bodies with a
    net-positive balance, are reported at the construct; exits that raise
    are out of scope.  Releases of locks acquired elsewhere (wrapper calls,
    loop helpers) are never flagged.  A binding tagged [\[@acquires\]] — a
    lock wrapper that hands the held lock to its caller ([lock_next_at]) —
    is exempt, body included.  So is a binding that releases through a
    local {e releaser} helper (a function the summary pass sees unlocking
    without ever locking, like the skiplists' [unlock_distinct]): its
    pairing is deliberately non-syntactic, and the inference replaces the
    blanket [\[@acquires\]] tags those functions used to need.

    {b L4 — hot-path allocation.}  Bindings tagged [\[@hot\]] (the
    contains/insert/remove cores whose zero-allocation behaviour
    [test_alloc] measures) may not contain closures, tuple/record/array
    construction, allocating constructor applications, [lazy], binding
    operators, [ref] allocation, or staged applications [(f x) y] — the
    syntactic footprint of a partial application.  The leading parameter
    lambdas of the tagged binding itself are not flagged.

    {b L5 — epoch-bracket discipline.}  In a {e reclaiming module} (one
    that applies [op_enter]/[retire]/[recycle] qualified), shared cells may
    only be touched from inside a balanced [M.op_enter]/[M.op_exit]
    bracket: a node read outside a bracket can be freed under the reader.
    Two parts.  (a) Bracket balance per function body, with exactly L3's
    branch/loop/exit machinery applied to [op_enter]/[op_exit].  (b)
    Reachability through the {!Summaries} call graph: a dereference
    ([M.get]/[M.set]/[M.cas]/lock ops/[M.retire]/[M.recycle]) or a call to
    a function that transitively dereferences is a finding when it sits in
    an {e unprotected} function outside a bracket and outside the
    unreclaiming arm of an [if M.reclaiming].  Helpers reached only from
    bracketed call sites are protected by inference — no tag needed;
    [\[@protected\]] asserts it for helpers the fixpoint cannot see
    (function pointers), and [\[@quiescent\]] marks single-threaded
    observers ([check_invariants]) whose unbracketed reads are
    deliberate.

    {b L6 — retire/use discipline.}  Intraprocedural forward dataflow: a
    value passed to [M.retire] is poisoned for the rest of the function —
    any later mention (field read, lock/unlock, re-retire) is a finding,
    since the node may already be recycled by a concurrent insert.  A
    retire of a value the function did not bind locally (a parameter or
    helper result, i.e. a node that was reachable) must be preceded by an
    unlinking [M.set]/[M.cas] earlier in the walk.  The walk threads
    if/match arms in statement order (path-insensitive: an arm's poison
    flows into the sibling text that follows it — sound for the
    straight-line unlink-then-retire idiom the lists use).

    {b L7 — publish-before-reachable.}  Within a function, once a node is
    {e published} — its name occurs in the value stored by an
    [M.set]/[M.cas], or its [version] field is bumped (the versioned
    lists' publication witness) — a non-constant store to a direct field
    cell [n.field] of it is a finding: every cell of a fresh or
    [recycle]d node must be written before other threads can reach it.
    This is the rule that catches the PR 6 vbl_versioned
    version-before-next bug shape statically.  Constant stores
    ([M.set n.fully_linked true]) are the deliberate post-publish flag
    idiom and stay exempt; cells reached through accessor helpers
    ([next_cell_exn prev]) are surgery on already-reachable nodes and
    only count as publish sites, never violations. *)

val file :
  ?summaries:Summaries.file_info ->
  rules:Finding.rule list ->
  file:string ->
  Parsetree.structure ->
  Finding.t list
(** Run the selected rules over one parsed file; [file] is the name put in
    findings.  [summaries] (default {!Summaries.empty}) feeds L3's
    releaser/[@acquires] inference and L5's reachability — without it those
    collapse to their intraprocedural parts.  Results are sorted by
    position. *)

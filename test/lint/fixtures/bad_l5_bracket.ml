(* L5 fixture: epoch-bracket discipline in a reclaiming module (the file
   applies M.op_enter/M.retire, so the rule arms); a key read or rewrite
   is a dereference like a cell access.  [shielded],
   [unreclaiming_twin] and the [@quiescent] observer are negative
   controls and must stay clean. *)
let deref_helper c = M.get c

let unsafe_root t =
  let v = M.get t.head in
  ignore (deref_helper t.head);
  v

let leaky_bracket t cond =
  let h = M.op_enter t.pool in
  if cond then begin
    M.op_exit t.pool h;
    true
  end
  else false

let shielded t =
  let h = M.op_enter t.pool in
  let v = deref_helper t.head in
  if v then M.retire t.pool t.head;
  M.op_exit t.pool h;
  v

let unreclaiming_twin t =
  if M.reclaiming then begin
    let h = M.op_enter t.pool in
    let r = deref_helper t.head in
    M.op_exit t.pool h;
    r
  end
  else deref_helper t.head

let[@quiescent] observer t = M.get t.head

let unsafe_key t = M.get_key t.value

let unsafe_rekey t v = M.set_key t key_of v

(* The shared-access sequence of every instrumented set, pinned.

   A refactor of a node's layout or of a walk's shape must leave the
   accesses each operation makes -- their order, kind and name -- as they
   were: the DPOR counts, the paper's schedules and the cost simulator all
   read them.  This test runs seeded [Vbl_sim.Sim_run.run]s over every
   instrumented set ([Vbl_harness.Sweep.instrumented]) and every seeded
   mutant ([Vbl_analysis.Mutants.all]), streams each executed step (thread,
   kind, name) and each run's result into a digest, and compares the
   digest with a pinned one.

   A change that moves the digest changes what some operation reads or
   writes.  When that is the point of the change, repin [expected] and
   say in the change which accesses moved and why. *)

let expected = "af8381bae4bb8c071d42ae36337637ed"

(* (threads, update %, key range), horizon 20 000 cycles. *)
let configs = [ (4, 50, 16); (4, 100, 16); (3, 100, 8) ]

let horizon = 20_000.

let seed = 7L

(* The stdlib's [Digest] has no incremental interface, so steps go into
   a buffer that is folded into a running digest whenever it fills:
   [d' = MD5 (d ^ chunk)], a deterministic function of the whole stream. *)
let chunk = 1 lsl 16

let digest = ref (Digest.string "")

let buf = Buffer.create (2 * chunk)

let flush () =
  digest := Digest.string (Digest.to_hex !digest ^ Buffer.contents buf);
  Buffer.clear buf

let line s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\n';
  if Buffer.length buf >= chunk then flush ()

let sink =
  {
    Vbl_obs.Probe.noop with
    trace = Some (fun e -> line (Vbl_obs.Trace.event_to_string e));
  }

let dump () =
  let sets = Vbl_harness.Sweep.instrumented @ Vbl_analysis.Mutants.all in
  Vbl_obs.Probe.install sink;
  Fun.protect ~finally:Vbl_obs.Probe.uninstall (fun () ->
      List.iter
        (fun (module S : Vbl_lists.Set_intf.S) ->
          List.iter
            (fun (threads, update_percent, key_range) ->
              line (Printf.sprintf "== %s t=%d u=%d r=%d" S.name threads update_percent key_range);
              (* A mutant may fail mid-run (a leaked lock deadlocks the
                 pre-population); the failure is part of the dump. *)
              match
                Vbl_sim.Sim_run.run
                  (module S)
                  { threads; update_percent; key_range; horizon; seed; zipf = None }
              with
              | r ->
                  line
                    (Printf.sprintf "ops=%d steps=%d size=%d" r.ops_completed r.steps
                       r.final_size)
              | exception e -> line ("raised " ^ Printexc.to_string e))
            configs)
        sets);
  flush ();
  Digest.to_hex !digest

let () =
  Alcotest.run "step-dump"
    [
      ( "steps",
        [
          Alcotest.test_case "every instrumented set and mutant makes the pinned accesses" `Slow
            (fun () -> Alcotest.(check string) "step digest" expected (dump ()));
        ] );
    ]

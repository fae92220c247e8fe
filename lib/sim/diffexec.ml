open Lsra_ir
open Lsra_target

(* Differential-execution oracle: run a program before allocation and
   after, on the same interpreter, and compare everything observable —
   the output stream and the returned value. The interpreter poisons
   caller-saved registers at calls and traps on undefined reads, so a
   divergence pins an allocator bug to a concrete execution, which is a
   strictly stronger (if slower) oracle than the abstract verifier. On
   an x86-64 host the allocated program then runs natively too, so the
   encoder answers to the same observables.

   On a divergence, the shrinker deletes instructions and straightens
   branches while the failure persists, down to a minimal textual
   reproducer. *)

type divergence =
  | Reference_trap of string
  | Allocated_trap of string
  | Output_mismatch of { expected : string; actual : string }
  | Ret_mismatch of { expected : Value.t; actual : Value.t }
  | Verifier_reject of Lsra.Verify.error
  | Allocator_raise of string
  | Trace_mismatch of string
  | Pass_divergence of { pass : string; underlying : divergence }
  | Native_divergence of string

let rec divergence_to_string = function
  | Reference_trap e -> Printf.sprintf "pre-allocation program traps: %s" e
  | Allocated_trap e -> Printf.sprintf "allocated program traps: %s" e
  | Output_mismatch { expected; actual } ->
    Printf.sprintf "output mismatch: expected %S, got %S" expected actual
  | Ret_mismatch { expected; actual } ->
    Printf.sprintf "return-value mismatch: expected %s, got %s"
      (Value.to_string expected) (Value.to_string actual)
  | Verifier_reject e ->
    Printf.sprintf "verifier rejects function '%s' (block '%s') at '%s': %s"
      e.Lsra.Verify.fn e.Lsra.Verify.block e.Lsra.Verify.where
      e.Lsra.Verify.what
  | Allocator_raise e -> Printf.sprintf "allocator raised: %s" e
  | Trace_mismatch e -> Printf.sprintf "decision-trace mismatch: %s" e
  | Pass_divergence { pass; underlying } ->
    Printf.sprintf "after cleanup pass '%s': %s" pass
      (divergence_to_string underlying)
  | Native_divergence e -> Printf.sprintf "native stage: %s" e

(* A Verifier_reject (even one attributed to a cleanup pass) means the
   abstract checker balked; everything else is a behavioral failure.
   [Sweep.of_divergence] keys its verdict on this split. *)
let rec is_verifier_reject = function
  | Verifier_reject _ -> true
  | Pass_divergence { underlying; _ } -> is_verifier_reject underlying
  | Reference_trap _ | Allocated_trap _ | Output_mismatch _ | Ret_mismatch _
  | Allocator_raise _ | Trace_mismatch _ | Native_divergence _ ->
    false

type alloc_fn = Machine.t -> Func.t -> unit

exception Stop of divergence

let truncated s =
  if String.length s <= 160 then s else String.sub s 0 160 ^ "…"

let native_mismatch (expected : Interp.outcome)
    (native : Lsra_native.Exec.outcome) =
  match native.trap, expected.ret with
  | Some t, _ -> Some ("native run traps: " ^ t)
  | None, _ when native.output <> expected.output ->
    Some
      (Printf.sprintf "output mismatch: interpreter %S, native %S"
         (truncated expected.output) (truncated native.output))
  | None, Value.Int want when want <> native.ret ->
    Some
      (Printf.sprintf "return-value mismatch: interpreter %d, native %d" want
         native.ret)
  | None, (Value.Int _ | Value.Flt _ | Value.Undef) -> None

(* The last stage: emit the allocated program as x86-64, run it with the
   same fuel and input, and require what the last accepted interpreter
   run observed. Only an x86-64 host can run it. *)
let native_stage ~fuel ~input machine ~heap_words prog expected =
  if Lsra_native.Exec.available () then
    let mismatch =
      match Lsra_native.Lower.compile machine prog with
      | Error e -> Some ("emission failed: " ^ e)
      | Ok compiled -> (
        match
          Lsra_native.Exec.run_compiled ~fuel ~input compiled ~heap_words
        with
        | native -> native_mismatch expected native
        | exception Failure e -> Some ("execution failed: " ^ e))
    in
    Option.iter (fun why -> raise (Stop (Native_divergence why))) mismatch

(* The one oracle core: interpret [prog] for reference, then hand a copy
   to [stages] with [compare wrap], which re-interprets the copy and stops
   on any difference from the reference, as [wrap] attributes it. The
   copy as the stages leave it then runs natively against the last run
   [compare] accepted. *)
let differential ~fuel ~input machine prog stages =
  match Interp.run ~fuel machine prog ~input with
  | Error e -> Error (Reference_trap e)
  | Ok reference -> (
    let copy = Program.copy prog in
    let last = ref None in
    let compare wrap =
      let diverge d = raise (Stop (wrap d)) in
      match Interp.run ~fuel machine copy ~input with
      | Error e -> diverge (Allocated_trap e)
      | Ok actual when reference.Interp.output <> actual.Interp.output ->
        let expected = reference.Interp.output in
        diverge (Output_mismatch { expected; actual = actual.Interp.output })
      | Ok actual
        when reference.Interp.ret <> Value.Undef
             && not (Value.equal reference.Interp.ret actual.Interp.ret) ->
        (* an undefined reference return refines to anything: the program
           never promised a value there *)
        diverge
          (Ret_mismatch
             { expected = reference.Interp.ret; actual = actual.Interp.ret })
      | Ok actual -> last := Some actual
    in
    match
      let result = stages copy compare in
      Option.iter
        (native_stage ~fuel ~input machine
           ~heap_words:(Program.heap_words prog) copy)
        !last;
      result
    with
    | result -> Ok result
    | exception Stop d -> Error d)

(* A divergence found after managed pass [pass], or after the allocation
   itself ([None]). *)
let after pass d =
  match pass with
  | None -> d
  | Some p -> Pass_divergence { pass = Lsra.Passes.name p; underlying = d }

(* What an exception from the allocation step, its verification included,
   says about the allocator. Running out of memory says nothing about it:
   that propagates. *)
let of_alloc_exn = function
  | Out_of_memory -> raise Out_of_memory
  | Lsra.Verify.Mismatch e -> Verifier_reject e
  | Lsra.Allocator.Trace_mismatch e -> Trace_mismatch e
  | e -> Allocator_raise (Printexc.to_string e)

let check_with ?(fuel = 200_000_000) ?(verify = true) ?(input = "") machine
    (alloc : alloc_fn) prog =
  differential ~fuel ~input machine prog (fun copy compare ->
      List.iter
        (fun (_, f) ->
          let original = if verify then Some (Lsra.Verify.index f) else None in
          try
            alloc machine f;
            Option.iter
              (fun original -> Lsra.Verify.against machine original ~allocated:f)
              original
          with e -> raise (Stop (of_alloc_exn e)))
        (Program.funcs copy);
      compare Fun.id)

(* The oracle sandwich over the real pipeline: [Allocator.pipeline], with
   DCE's liveness hand-over, verifies after allocation and after every
   cleanup pass, checks every traced allocation against its stats, and
   calls back after every stage, where the program is re-interpreted. A
   divergence introduced by a managed pass is pinned to that pass by name,
   so "Motion broke this program" and "the allocator broke this program"
   are distinct findings. *)
let check_pipeline ?(fuel = 200_000_000) ?(verify = true) ?(input = "")
    ?(passes = Lsra.Passes.all) machine algo prog =
  differential ~fuel ~input machine prog (fun copy compare ->
      let seen = ref [] in
      let check_each stage _ =
        seen := stage :: !seen;
        compare (after stage)
      in
      (* An exception escapes from the first stage not reported yet: a
         pass before allocation, the allocation ([None]), or a pass
         after it. *)
      let running () =
        match
          List.find_opt
            (fun p -> not (List.mem (Some p) !seen))
            (Lsra.Passes.normalize passes)
        with
        | Some p when Lsra.Passes.is_pre p || List.mem None !seen -> Some p
        | Some _ | None -> None
      in
      match
        Lsra.Allocator.pipeline ~verify ~passes ~check_each
          ~trace:(Lsra.Trace.create ()) algo machine copy
      with
      | stats -> stats
      | exception (Stop _ as stop) -> raise stop
      | exception e -> (
        match running (), e with
        | None, e -> raise (Stop (of_alloc_exn e))
        | stage, Lsra.Verify.Mismatch v ->
          raise (Stop (after stage (Verifier_reject v)))
        | Some _, e -> raise e))

let check ?fuel ?verify ?input machine algo prog =
  Result.map ignore
    (check_pipeline ?fuel ?verify ?input ~passes:[] machine algo prog)

let check_all ?fuel ?verify ?input ?(algorithms = Lsra.Allocator.all) machine
    prog =
  List.filter_map
    (fun algo ->
      match check ?fuel ?verify ?input machine algo prog with
      | Ok () -> None
      | Error d -> Some (Lsra.Allocator.short_name algo, d))
    algorithms

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* A failure still counts only if the *pre-allocation* program stays
   well-defined: a shrink step that makes the reference itself trap
   (e.g. deleting an initialisation) is rejected, so the reproducer is
   always a valid input on which only the allocator (or a cleanup pass)
   is wrong. *)
let still_fails_by recheck ~fuel prog =
  match recheck ~fuel prog with
  | Error (Reference_trap _) | Ok () -> false
  | Error _ -> true

let delete_instr prog fname bi k =
  let f = Program.find_exn prog fname in
  let b = (Cfg.blocks (Func.cfg f)).(bi) in
  let body = Block.body b in
  let n = Array.length body in
  Block.set_body b
    (Array.append (Array.sub body 0 k) (Array.sub body (k + 1) (n - k - 1)))

let straighten_branch prog fname bi takeso =
  let f = Program.find_exn prog fname in
  let b = (Cfg.blocks (Func.cfg f)).(bi) in
  match Block.term b with
  | Block.Branch { ifso; ifnot; _ } ->
    Block.set_term b (Block.Jump (if takeso then ifso else ifnot))
  | Block.Jump _ | Block.Ret -> ()

(* Every single-step edit of the current program: delete one body
   instruction, or turn one conditional branch into a jump (dead blocks
   are harmless — the interpreter and allocators never reach them). *)
let edits prog =
  List.concat_map
    (fun (fname, f) ->
      let blocks = Cfg.blocks (Func.cfg f) in
      List.concat
        (List.init (Array.length blocks) (fun bi ->
             let b = blocks.(bi) in
             let deletes =
               List.init (Array.length (Block.body b)) (fun k p ->
                   delete_instr p fname bi k)
             in
             let straightens =
               match Block.term b with
               | Block.Branch _ ->
                 [
                   (fun p -> straighten_branch p fname bi true);
                   (fun p -> straighten_branch p fname bi false);
                 ]
               | Block.Jump _ | Block.Ret -> []
             in
             deletes @ straightens)))
    (Program.funcs prog)

(* The shrinking loop itself is oracle-agnostic: [recheck] is any
   program-level differential checker (allocation-only via {!check_with},
   or the full pipeline via {!check_pipeline}). *)
let shrink_by ?fuel ?input ?(max_checks = 2_000) machine recheck prog =
  (* Unless the caller pins the fuel, bound every candidate run by the
     reference execution of the full program: an edit that creates a
     runaway loop (straightening a loop exit, deleting an induction
     increment) then traps in milliseconds instead of burning the
     interpreter's huge default budget on every such candidate. *)
  let fuel =
    match fuel with
    | Some f -> f
    | None -> (
      match
        Interp.run machine prog ~input:(Option.value input ~default:"")
      with
      | Ok o -> max (20 * o.Interp.counts.Interp.total) 100_000
      | Error _ -> 100_000)
  in
  let checks = ref 0 in
  let still_fails p =
    incr checks;
    still_fails_by recheck ~fuel p
  in
  let try_edit cur edit =
    let cand = Program.copy cur in
    match
      edit cand;
      Program.validate cand
    with
    | () -> if still_fails cand then Some cand else None
    | exception Cfg.Malformed _ -> None
    | exception Invalid_argument _ -> None
  in
  if not (still_fails prog) then prog
  else begin
    let cur = ref prog in
    let progress = ref true in
    while !progress && !checks < max_checks do
      progress := false;
      (* One pass over the edit list: re-derive it after every accepted
         edit (indices shift) but resume the scan in place, so an edit
         rejected earlier in the pass is not retried until the next
         pass. *)
      let i = ref 0 in
      let scanning = ref true in
      while !scanning && !checks < max_checks do
        let es = edits !cur in
        if !i >= List.length es then scanning := false
        else
          match try_edit !cur (List.nth es !i) with
          | Some smaller ->
            cur := smaller;
            progress := true
          | None -> incr i
      done
    done;
    !cur
  end

let shrink ?fuel ?verify ?input ?max_checks machine (alloc : alloc_fn) prog =
  shrink_by ?fuel ?input ?max_checks machine
    (fun ~fuel p -> check_with ~fuel ?verify ?input machine alloc p)
    prog

let shrink_pipeline ?fuel ?verify ?input ?passes ?max_checks machine algo prog
    =
  shrink_by ?fuel ?input ?max_checks machine
    (fun ~fuel p ->
      Result.map ignore
        (check_pipeline ~fuel ?verify ?input ?passes machine algo p))
    prog

open Lsra_ir

(* The managed pipeline passes around allocation, as one composable,
   individually-toggleable list. The paper's evaluation pipeline (§3) is
   DCE → allocation → move-collapsing peephole; Copyprop, Motion and
   Slots are the extension passes that slot into the same frame. Every
   pass is pure cleanup: running any subset, in canonical order, must
   preserve the program's observable behaviour — which is exactly what
   the oracle sandwich (Verify + Diffexec after every pass) enforces. *)

type t = Copyprop | Dce | Motion | Peephole | Slots

(* Canonical pipeline order: pre-allocation passes first (copy
   propagation feeds DCE the dead copies), then the post-allocation
   cleanups (Motion exposes self-moves for Peephole; Slots runs last so
   it sees the fewest live slots). *)
let all = [ Copyprop; Dce; Motion; Peephole; Slots ]

(* The paper's §3 pipeline: DCE before allocation, the move-collapsing
   peephole after. *)
let default = [ Dce; Peephole ]
let cleanup = [ Motion; Peephole; Slots ]

let is_pre = function
  | Copyprop | Dce -> true
  | Motion | Peephole | Slots -> false

let stats_pass = function
  | Copyprop -> Stats.Copyprop
  | Dce -> Stats.Dce
  | Motion -> Stats.Motion
  | Peephole -> Stats.Peephole
  | Slots -> Stats.Slots

let name p = Stats.pass_name (stats_pass p)
let of_name n = List.find_opt (fun p -> name p = n) all

(* Dedup and restore canonical order: passes are not commutative (Slots
   after Motion sees fewer live slots; Peephole after Motion deletes the
   self-moves Motion exposes), so a caller-supplied order is a request
   for a *set* of passes, not a schedule. *)
let normalize ps = List.filter (fun p -> List.mem p ps) all

let parse spec =
  match String.trim spec with
  | "all" -> Ok all
  | "none" -> Ok []
  | "default" -> Ok default
  | "cleanup" -> Ok (normalize (default @ cleanup))
  | s ->
    let names =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let rec go acc = function
      | [] -> Ok (normalize acc)
      | n :: rest -> (
        match of_name n with
        | Some p -> go (p :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown pass %S (expected %s, or all/none/default/cleanup)" n
               (String.concat ", " (List.map name all))))
    in
    go [] names

let to_spec ps =
  match normalize ps with
  | [] -> "none"
  | ps -> String.concat "," (List.map name ps)

(* Run one pass's [work] over the whole program. The return value is
   the pass's own change count (instructions rewritten/removed; frame
   words saved for Slots). Wall time lands in [stats] under the pass's
   own counter, and Slots' savings additionally land in
   [stats.frame_saved]; a [trace] sink brackets the work in
   [Pass_begin]/[Pass_end] events (plus per-slot [Slot_renumber] events
   from Slots itself). *)
let bracket ?stats ?trace pass work =
  Option.iter (fun t -> Trace.emit t (Trace.Pass_begin { pass = name pass }))
    trace;
  let changed =
    match stats with
    | None -> work ()
    | Some s -> Stats.timed s (stats_pass pass) work
  in
  (match pass, stats with
  | Slots, Some s -> s.Stats.frame_saved <- s.Stats.frame_saved + changed
  | _ -> ());
  Option.iter
    (fun t -> Trace.emit t (Trace.Pass_end { pass = name pass; changed }))
    trace;
  changed

let per_func prog run =
  List.fold_left (fun acc (_, f) -> acc + run f) 0 (Program.funcs prog)

let run_pass ?stats ?trace pass prog =
  bracket ?stats ?trace pass (fun () ->
      match pass with
      | Copyprop -> per_func prog Lsra_analysis.Copyprop.run
      | Dce ->
        per_func prog (fun f -> fst (Lsra_analysis.Dce.run_to_fixpoint f))
      | Motion -> per_func prog Motion.run
      | Peephole -> per_func prog Peephole.run
      | Slots -> per_func prog (Slots.run ?trace))

let run_dce ?stats ?trace prog =
  let solutions = ref [] in
  let removed =
    bracket ?stats ?trace Dce (fun () ->
        per_func prog (fun f ->
            let n, live = Lsra_analysis.Dce.run_to_fixpoint f in
            solutions := Some live :: !solutions;
            n))
  in
  (removed, Array.of_list (List.rev !solutions))

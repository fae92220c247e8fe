open Lsra_ir
open Lsra_target

(* Input validation for the allocators: the invariants the scan and the
   coloring builder rely on but {!Func.validate} does not cover. *)

exception Rejected of string

let fail fmt = Printf.ksprintf (fun s -> raise (Rejected s)) fmt

let no_temp (_ : Temp.t) = ()

let run ?(allow_undefined = false) machine func =
  Func.validate func;
  let cfg = Func.cfg func in
  (* 1. No spill instructions before allocation. *)
  Func.iter_instrs func (fun i ->
      match Instr.desc i with
      | Instr.Spill_load _ | Instr.Spill_store _ ->
        fail "%s: input contains spill code: %s" (Func.name func)
          (Instr.to_string i)
      | _ ->
        if Instr.is_spill i then
          fail "%s: input carries a spill tag: %s" (Func.name func)
            (Instr.to_string i));
  (* 2. Machine-register live ranges must not cross block boundaries: a
     register read must be preceded by a write in the same block, except
     for argument registers at the top of the entry block. *)
  let entry = Cfg.entry cfg in
  let arg_regs =
    Machine.int_args machine @ Machine.float_args machine
  in
  Cfg.iter_blocks
    (fun b ->
      (* Keyed by [Mreg.hash], which is injective over registers. *)
      let written : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      (* [where] renders the reading instruction or terminator; it is
         called only to report a violation. *)
      let check_use where (r : Mreg.t) =
        if not (Hashtbl.mem written (Mreg.hash r)) then
          if Block.label b = entry && List.exists (Mreg.equal r) arg_regs
          then () (* a parameter arriving at function entry *)
          else
            fail
              "%s: block %s reads %s before writing it (register live \
               ranges must be block-local): %s"
              (Func.name func) (Block.label b) (Mreg.to_string r) (where ())
      in
      let write r = Hashtbl.replace written (Mreg.hash r) () in
      Array.iter
        (fun i ->
          Instr.iter_uses ~temp:no_temp
            ~reg:(check_use (fun () -> Instr.to_string i))
            i;
          Instr.iter_defs ~temp:no_temp ~reg:write i)
        (Block.body b);
      let term = Block.term b in
      Block.iter_term_uses ~temp:no_temp
        ~reg:(check_use (fun () -> Block.term_to_string term))
        b)
    cfg;
  (* 3. Registers named by instructions must exist on the machine. *)
  let check_reg r =
    if Mreg.idx r >= Machine.n_regs machine (Mreg.cls r) then
      fail "%s: register %s does not exist on %s" (Func.name func)
        (Mreg.to_string r) (Machine.name machine)
  in
  Func.iter_instrs func (fun i ->
      Instr.iter_uses ~temp:no_temp ~reg:check_reg i;
      Instr.iter_defs ~temp:no_temp ~reg:check_reg i);
  (* 4. No temporary may be live into the entry block (used before any
     definition on some path). The compressed liveness excludes
     single-block temps, which can still be used-before-def inside the
     entry block, so this check needs the full vectors. *)
  if not allow_undefined then begin
    let liveness = Lsra_analysis.Liveness.compute ~compress:false func in
    let live_entry =
      Lsra_analysis.Liveness.live_in liveness (Cfg.entry_index cfg)
    in
    if not (Lsra_analysis.Bitset.is_empty live_entry) then
      fail "%s: temporaries possibly used before definition: %s"
        (Func.name func)
        (String.concat ", "
           (List.map string_of_int
              (Lsra_analysis.Bitset.elements live_entry)))
  end

let check machine func =
  match run machine func with
  | () -> Ok ()
  | exception Rejected msg -> Error msg

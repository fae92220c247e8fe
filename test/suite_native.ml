open Lsra_target
module E = Lsra_native.Encoder
module Lower = Lsra_native.Lower
module Exec = Lsra_native.Exec

(* Everything up to actual execution — encoding, lowering, listings —
   is pure OCaml and runs on any host. The execution tests gate on
   {!Exec.available} and pass vacuously elsewhere, printing a notice so
   a green run on ARM is visibly weaker than a green run on x86-64. *)
let exec_gate name f =
  if Exec.available () then f ()
  else Printf.printf "  [%s: skipped — host is not x86-64]\n%!" name

let hex c =
  let b = E.to_bytes c in
  E.hex_of b ~pos:0 ~len:(Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Encoder: exact bytes against hand-assembled expectations.           *)

let test_encoder_mov () =
  let c = E.create () in
  E.mov_ri c ~dst:E.rax 7L;
  Alcotest.(check string) "mov rax, 7 (imm32)" "48 c7 c0 07 00 00 00" (hex c);
  let c = E.create () in
  E.mov_ri c ~dst:E.r13 0x1_0000_0000L;
  Alcotest.(check string) "movabs r13 (imm64)"
    "49 bd 00 00 00 00 01 00 00 00" (hex c);
  let c = E.create () in
  E.mov_rr c ~dst:E.rbx ~src:E.r12;
  Alcotest.(check string) "mov rbx, r12" "4c 89 e3" (hex c);
  let c = E.create () in
  E.mov_rm c ~dst:E.rax ~base:E.r14 ~disp:56;
  Alcotest.(check string) "mov rax, [r14+56]" "49 8b 86 38 00 00 00" (hex c);
  let c = E.create () in
  E.mov_mr c ~base:E.rbp ~disp:(-8) ~src:E.rcx;
  Alcotest.(check string) "mov [rbp-8], rcx" "48 89 8d f8 ff ff ff" (hex c)

let test_encoder_alu () =
  let c = E.create () in
  E.add_rr c ~dst:E.rax ~src:E.rcx;
  E.sub_rr c ~dst:E.rax ~src:E.rcx;
  E.imul_rr c ~dst:E.rax ~src:E.rcx;
  Alcotest.(check string) "add/sub/imul" "48 01 c8 48 29 c8 48 0f af c1"
    (hex c);
  let c = E.create () in
  E.cqo c;
  E.idiv c E.rcx;
  Alcotest.(check string) "cqo; idiv rcx" "48 99 48 f7 f9" (hex c);
  let c = E.create () in
  E.shl_i c E.rax 1;
  E.sar_i c E.rax 1;
  Alcotest.(check string) "norm63 sequence" "48 c1 e0 01 48 c1 f8 01" (hex c)

let test_encoder_labels () =
  (* Forward and backward rel32 fixups must land exactly. *)
  let c = E.create () in
  let top = E.new_label c in
  let out = E.new_label c in
  E.bind c top;
  E.test_rr c E.rax E.rax;
  E.jcc c E.E out;
  E.jmp c top;
  E.bind c out;
  E.ret c;
  (* 0: 48 85 c0 test; 3: 0f 84 05000000 je +5 -> 0xe; 9: e9 f2ffffff
     jmp -14 -> 0x0; e: c3 *)
  Alcotest.(check string) "branch fixups"
    "48 85 c0 0f 84 05 00 00 00 e9 f2 ff ff ff c3" (hex c)

let test_encoder_sse () =
  let c = E.create () in
  E.movq_x_r c ~dst:0 ~src:E.rax;
  E.addsd c ~dst:0 ~src:1;
  E.ucomisd c 0 1;
  E.cvttsd2si c ~dst:E.rax ~src:0;
  Alcotest.(check string) "movq/addsd/ucomisd/cvttsd2si"
    "66 48 0f 6e c0 f2 0f 58 c1 66 0f 2e c1 f2 48 0f 2c c0" (hex c)

(* ------------------------------------------------------------------ *)
(* Lowering: allocated programs must emit, and the machine-code        *)
(* fingerprint must key caches differently in native mode.             *)

let allocated prog machine algo =
  let copy = Lsra_ir.Program.copy prog in
  ignore
    (Lsra.Allocator.pipeline ~precheck:false ~verify:false
       ~passes:Lsra.Passes.all algo machine copy);
  copy

let test_lower_corpus () =
  let machine = Machine.alpha_like in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let prog =
        allocated case.Lsra_workloads.Specbench.program machine
          Lsra.Allocator.default_second_chance
      in
      match Lower.compile machine prog with
      | Error e ->
        Alcotest.failf "%s does not emit: %s"
          case.Lsra_workloads.Specbench.name e
      | Ok compiled ->
        if Bytes.length compiled.Lower.code = 0 then
          Alcotest.failf "%s emitted no code"
            case.Lsra_workloads.Specbench.name)
    (Lsra_workloads.Specbench.all machine ~scale:1)

let test_lower_rejects_temp () =
  (* A pre-allocation program still has virtual temps: emission must
     fail with a diagnostic, not emit garbage. *)
  let machine = Machine.small () in
  let prog =
    Lsra_text.Ir_text.of_string
      "program main=main heap=16\n\n\
       func main {\n\
      \  temp t0 int\n\
      \  block entry:\n\
      \    t0 := 1\n\
      \    ret\n\
       }\n"
  in
  match Lower.compile machine prog with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "emitted a program that still has temps"

let test_cachekey_backend () =
  let machine = Machine.small () in
  let prog =
    Lsra_text.Ir_text.of_string
      "program main=main heap=16\n\nfunc main {\n  block entry:\n    ret\n}\n"
  in
  let algo = Lsra.Allocator.default_second_chance in
  let passes = Lsra.Passes.default in
  let plain = Lsra_service.Cachekey.digest ~machine ~algo ~passes prog in
  let native =
    Lsra_service.Cachekey.digest ~backend:Lower.fingerprint ~machine ~algo
      ~passes prog
  in
  Alcotest.(check bool) "native key differs from pure-IR key" false
    (String.equal plain native);
  Alcotest.(check string) "native key is deterministic" native
    (Lsra_service.Cachekey.digest ~backend:Lower.fingerprint ~machine ~algo
       ~passes prog)

let test_mux_rejects_fd_setsize () =
  (* The guard must fire before the socket path is touched. *)
  let svc =
    Lsra_service.Service.create
      (Lsra_service.Service.default_config (Machine.small ()))
  in
  let path = Filename.temp_file "lsra-mux" ".sock" in
  Sys.remove path;
  (match Lsra_service.Mux.serve_socket ~max_clients:1024 svc path with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_clients=1024 (FD_SETSIZE) must be rejected");
  Alcotest.(check bool) "socket path not created" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Execution (x86-64 hosts only).                                      *)

let run_native source ~input =
  let machine = Machine.small () in
  let prog = Lsra_text.Ir_text.of_string source in
  match Exec.run ~input machine prog with
  | Error e -> Alcotest.failf "emission failed: %s" e
  | Ok o -> o

let test_exec_basic () =
  exec_gate "exec basic" (fun () ->
      let o =
        run_native ~input:""
          "program main=main heap=16\n\n\
           func main {\n\
          \  block entry:\n\
          \    $r1 := 40\n\
          \    $r0 := add $r1, 2\n\
          \    call ext_puti($r1) -> $r0 ! $r0 $r1 $f0 $f1\n\
          \    $r0 := 42\n\
          \    ret\n\
           }\n"
      in
      Alcotest.(check (option string)) "no trap" None o.Exec.trap;
      Alcotest.(check string) "output" "40\n" o.Exec.output;
      Alcotest.(check int) "ret" 42 o.Exec.ret)

let test_exec_div0_trap () =
  exec_gate "exec div0" (fun () ->
      let o =
        run_native ~input:""
          "program main=main heap=16\n\n\
           func main {\n\
          \  block entry:\n\
          \    $r1 := 0\n\
          \    $r0 := div $r1, $r1\n\
          \    ret\n\
           }\n"
      in
      Alcotest.(check (option string)) "div0 traps"
        (Some "division by zero") o.Exec.trap)

let test_exec_oob_trap () =
  exec_gate "exec oob" (fun () ->
      let o =
        run_native ~input:""
          "program main=main heap=16\n\n\
           func main {\n\
          \  block entry:\n\
          \    $r1 := 99\n\
          \    $r0 := load $r1[0]\n\
          \    ret\n\
           }\n"
      in
      Alcotest.(check (option string)) "out-of-bounds load traps"
        (Some "heap address out of bounds") o.Exec.trap)

let test_exec_fuel_trap () =
  exec_gate "exec fuel" (fun () ->
      let machine = Machine.small () in
      let prog =
        Lsra_text.Ir_text.of_string
          "program main=main heap=16\n\n\
           func main {\n\
          \  block entry:\n\
          \    jump loop\n\
          \  block loop:\n\
          \    jump loop\n\
           }\n"
      in
      match Exec.run ~fuel:1000 ~input:"" machine prog with
      | Error e -> Alcotest.failf "emission failed: %s" e
      | Ok o ->
        Alcotest.(check (option string)) "infinite loop runs out of fuel"
          (Some "out of fuel") o.Exec.trap)

let test_exec_getc_roundtrip () =
  exec_gate "exec getc" (fun () ->
      (* Echo input through getc/putc until EOF: exercises the ext
         helper in both directions and the -1 end-of-input protocol. *)
      let o =
        run_native ~input:"hi!"
          "program main=main heap=16\n\n\
           func main {\n\
          \  block entry:\n\
          \    jump loop\n\
          \  block loop:\n\
          \    call ext_getc() -> $r0 ! $r0 $r1 $f0 $f1\n\
          \    br.lt $r0, 0 ? done : echo\n\
          \  block echo:\n\
          \    $r1 := $r0\n\
          \    call ext_putc($r1) -> $r0 ! $r0 $r1 $f0 $f1\n\
          \    jump loop\n\
          \  block done:\n\
          \    $r0 := 0\n\
          \    ret\n\
           }\n"
      in
      Alcotest.(check (option string)) "no trap" None o.Exec.trap;
      Alcotest.(check string) "echoed" "hi!" o.Exec.output)

(* The oracle's native comparison: a trap, different output bytes or a
   different integer return value is a mismatch; a return value the
   interpreter did not define as an integer is not compared. *)
let test_native_mismatch_rule () =
  let interp output ret =
    { Lsra_sim.Interp.counts = Lsra_sim.Interp.fresh_counts (); output; ret }
  in
  let native ?trap output ret =
    { Exec.output; ret; trap; fuel_left = 0; code_bytes = 0 }
  in
  let check name want i n =
    Alcotest.(check bool) name want
      (Option.is_some (Lsra_sim.Diffexec.native_mismatch i n))
  in
  let one = interp "a" (Lsra_sim.Value.Int 1) in
  check "agree" false one (native "a" 1);
  check "trap" true one (native ~trap:"out of fuel" "a" 1);
  check "output" true one (native "b" 1);
  check "ret" true one (native "a" 2);
  check "undefined ret" false (interp "a" Lsra_sim.Value.Undef) (native "a" 2)

let test_exec_deep_spill_calls () =
  (* The hostile generator profile: call-dense, spill-heavy programs
     through the full pipeline and the native oracle, on a machine
     small enough that the save area and Slots frame indices are
     exercised on every call. *)
  exec_gate "exec hostile" (fun () ->
      let machine = Lsra_sim.Sweep.small_8 in
      List.iter
        (fun seed ->
          let params = Lsra_workloads.Gen.hostile_params ~seed in
          let prog = Lsra_workloads.Gen.program ~params machine in
          match
            Lsra_sim.Diffexec.check_pipeline machine
              Lsra.Allocator.default_second_chance prog
          with
          | Ok _ -> ()
          | Error d ->
            Alcotest.failf "hostile seed %d diverges: %s" seed
              (Lsra_sim.Diffexec.divergence_to_string d))
        [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Property: native vs interpreter over machines × allocators.         *)

let native_property ~mname machine ~aname algo seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8 + (seed mod 9);
      n_stmts = 10 + (seed mod 11);
      n_funcs = 1 + (seed mod 2);
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  let input = String.init 8 (fun i -> Char.chr (97 + ((seed + i) mod 26))) in
  match Lsra_sim.Diffexec.check_pipeline ~input machine algo prog with
  | Ok _ -> true
  | Error d ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] diverges: %s" mname aname seed
      (Lsra_sim.Diffexec.divergence_to_string d)

let property_tests =
  if not (Exec.available ()) then []
  else
    List.concat_map
      (fun (mname, machine) ->
        List.map
          (fun algo ->
            let aname = Lsra.Allocator.short_name algo in
            QCheck.Test.make
              ~name:(Printf.sprintf "native vs interp: %s on %s" aname mname)
              ~count:8
              QCheck.(int_range 0 100_000)
              (fun seed -> native_property ~mname machine ~aname algo seed))
          Lsra_sim.Sweep.oracle_algorithms)
      Lsra_sim.Sweep.fuzz_machines

let suite =
  [
    ("encoder: mov forms", `Quick, test_encoder_mov);
    ("encoder: alu", `Quick, test_encoder_alu);
    ("encoder: label fixups", `Quick, test_encoder_labels);
    ("encoder: sse2", `Quick, test_encoder_sse);
    ("lower: corpus emits", `Quick, test_lower_corpus);
    ("lower: rejects virtual temps", `Quick, test_lower_rejects_temp);
    ("cachekey: backend fingerprint", `Quick, test_cachekey_backend);
  ]
  @ [
      ("mux: rejects FD_SETSIZE clients", `Quick, test_mux_rejects_fd_setsize);
      ("exec: basic run", `Quick, test_exec_basic);
      ("exec: div0 trap", `Quick, test_exec_div0_trap);
      ("exec: oob trap", `Quick, test_exec_oob_trap);
      ("exec: fuel trap", `Quick, test_exec_fuel_trap);
      ("exec: getc/putc roundtrip", `Quick, test_exec_getc_roundtrip);
      ("exec: hostile deep-spill calls", `Quick, test_exec_deep_spill_calls);
    ("oracle: native mismatch rule", `Quick, test_native_mismatch_rule);
    ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests

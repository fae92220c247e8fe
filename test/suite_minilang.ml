open Lsra_ir
open Lsra_target

(* Tests for the Minilang frontend: known-answer programs executed both
   unallocated and through every allocator. *)

let machine = Machine.alpha_like

let run_src ?(input = "") src =
  let prog = Lsra_frontend.Minilang.compile machine src in
  match Lsra_sim.Interp.run machine prog ~input with
  | Ok o -> o
  | Error e -> Alcotest.failf "trapped: %s" e

let returns ?input src expected =
  let o = run_src ?input src in
  Alcotest.(check string) "result" expected
    (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret)

let prints ?input src expected =
  let o = run_src ?input src in
  Alcotest.(check string) "output" expected o.Lsra_sim.Interp.output

let test_arith () =
  returns "fn main() { return (2 + 3) * 4 - 10 / 2; }" "15";
  returns "fn main() { return 17 % 5; }" "2";
  returns "fn main() { return 1 << 4 | 1; }" "17";
  returns "fn main() { return (12 & 10) ^ 15; }" "7";
  returns "fn main() { return -(3) + 1; }" "-2"

let test_precedence () =
  returns "fn main() { return 2 + 3 * 4; }" "14";
  returns "fn main() { return (2 + 3) * 4; }" "20";
  returns "fn main() { return 1 < 2 && 3 < 4; }" "1";
  returns "fn main() { return 0 || 5; }" "1";
  returns "fn main() { return !0 + !7; }" "1"

let test_variables_and_loops () =
  returns
    {|fn main() {
        var i = 0;
        var sum = 0;
        while (i < 10) { sum = sum + i * i; i = i + 1; }
        return sum;
      }|}
    "285"

let test_if_else () =
  returns
    {|fn main() {
        var x = 7;
        if (x > 5) { x = x * 2; } else { x = 0; }
        if (x == 14) { return 1; }
        return 0;
      }|}
    "1"

let test_functions_and_recursion () =
  returns
    {|fn fib(n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      fn main() { return fib(15); }|}
    "610"

let test_arrays () =
  returns
    {|fn main() {
        var a = alloc(10);
        var i = 0;
        while (i < 10) { a[i] = i * 3; i = i + 1; }
        var sum = 0;
        i = 0;
        while (i < 10) { sum = sum + a[i]; i = i + 1; }
        return sum;
      }|}
    "135"

let test_floats () =
  prints
    {|fn main() {
        var x = 1.5;
        var y = x * 4.0 - 0.25;
        print(y);
        return ftoi(y * 2.0);
      }|}
    "5.750000\n"

let test_io () =
  prints ~input:"AB"
    {|fn main() {
        var c = getc();
        while (c >= 0) { putc(c + 1); c = getc(); }
        return 0;
      }|}
    "BC"

let test_sieve () =
  (* count of primes below 50 = 15 *)
  returns
    {|fn main() {
        var n = 50;
        var sieve = alloc(n);
        var i = 2;
        while (i < n) { sieve[i] = 1; i = i + 1; }
        i = 2;
        while (i * i < n) {
          if (sieve[i]) {
            var j = i * i;
            while (j < n) { sieve[j] = 0; j = j + i; }
          }
          i = i + 1;
        }
        var count = 0;
        i = 2;
        while (i < n) { count = count + sieve[i]; i = i + 1; }
        return count;
      }|}
    "15"

let expect_parse_error src =
  match Lsra_frontend.Minilang.compile machine src with
  | exception Lsra_frontend.Parser.Error _ -> ()
  | exception Lsra_frontend.Lower.Error _ ->
    Alcotest.fail "expected a parse error, got a lowering error"
  | _ -> Alcotest.fail "expected a parse error"

let expect_lower_error src =
  match Lsra_frontend.Minilang.compile machine src with
  | exception Lsra_frontend.Lower.Error _ -> ()
  | exception Lsra_frontend.Parser.Error { line; msg } ->
    Alcotest.failf "expected a lowering error, got parse error line %d: %s"
      line msg
  | _ -> Alcotest.fail "expected a lowering error"

let test_errors () =
  expect_parse_error "fn main( { return 0; }";
  expect_parse_error "fn main() { return 0 }";
  expect_parse_error "fn main() { var = 3; }";
  expect_lower_error "fn main() { return x; }";
  expect_lower_error "fn main() { var x = 1; var x = 2; return 0; }";
  expect_lower_error "fn main() { var x = 1; x = 1.5; return 0; }";
  expect_lower_error "fn main() { return f(); }";
  expect_lower_error "fn f(a) { return a; } fn main() { return f(1, 2); }";
  expect_lower_error "fn f() { return 0; }" (* no main *);
  expect_lower_error "fn main() { return 1.5 + 2; }";
  expect_lower_error "fn main() { return 1.5 % 2.0; }"

let test_differential_through_allocators () =
  (* a program touching every feature, compiled then run through every
     allocator on a small machine *)
  let src =
    {|fn helper(x, y) {
        var z = x * y;
        if (z > 100) { return z - 100; }
        return z;
      }
      fn main() {
        var a = alloc(16);
        var i = 0;
        var facc = 0.5;
        while (i < 16) {
          a[i] = helper(i, i + 3);
          facc = facc * 1.5 - itof(i) / 8.0;
          i = i + 1;
        }
        var sum = 0;
        i = 0;
        while (i < 16) { sum = sum + a[i]; i = i + 1; }
        print(sum);
        print(facc);
        var c = getc();
        if (c >= 0) { putc(c); }
        return sum + ftoi(facc);
      }|}
  in
  let small =
    Machine.small ~int_regs:6 ~float_regs:6 ~int_caller_saved:3
      ~float_caller_saved:3 ()
  in
  let prog = Lsra_frontend.Minilang.compile small src in
  let reference = Lsra_sim.Interp.run small prog ~input:"Q" in
  let ref_out =
    match reference with
    | Ok o -> o.Lsra_sim.Interp.output
    | Error e -> Alcotest.failf "reference trapped: %s" e
  in
  List.iter
    (fun algo ->
      let copy = Program.copy prog in
      ignore (Lsra.Allocator.pipeline ~precheck:true ~verify:true algo small copy);
      match Lsra_sim.Interp.run small copy ~input:"Q" with
      | Ok o ->
        Alcotest.(check string)
          (Lsra.Allocator.short_name algo)
          ref_out o.Lsra_sim.Interp.output
      | Error e ->
        Alcotest.failf "%s trapped: %s" (Lsra.Allocator.short_name algo) e)
    Lsra.Allocator.heuristics

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "precedence and logic" `Quick test_precedence;
    Alcotest.test_case "variables and loops" `Quick test_variables_and_loops;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "functions and recursion" `Quick
      test_functions_and_recursion;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "io" `Quick test_io;
    Alcotest.test_case "sieve of eratosthenes" `Quick test_sieve;
    Alcotest.test_case "parse and lowering errors" `Quick test_errors;
    Alcotest.test_case "all allocators on a full program" `Quick
      test_differential_through_allocators;
  ]

(* ---------------- the corpus, across allocators and machines ---------------- *)

let corpus_machines =
  [
    ("alpha", Machine.alpha_like);
    ( "m6",
      Machine.make ~name:"m6" ~int_regs:6 ~float_regs:5 ~int_caller_saved:4
        ~float_caller_saved:2 ~n_int_args:3 ~n_float_args:1 );
  ]

let test_corpus () =
  List.iter
    (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
      List.iter
        (fun (mach_name, m) ->
          let prog = Lsra_frontend.Minilang.compile m source in
          let reference = Lsra_sim.Interp.run m prog ~input:minput in
          let ref_out =
            match reference with
            | Ok o -> o.Lsra_sim.Interp.output
            | Error e -> Alcotest.failf "%s reference trapped: %s" mname e
          in
          Alcotest.(check bool)
            (mname ^ " produces output")
            true
            (String.length ref_out > 0);
          List.iter
            (fun algo ->
              let copy = Program.copy prog in
              ignore
                (Lsra.Allocator.pipeline ~precheck:true ~verify:true algo m
                   copy);
              match Lsra_sim.Interp.run m copy ~input:minput with
              | Ok o ->
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s/%s" mname mach_name
                     (Lsra.Allocator.short_name algo))
                  ref_out o.Lsra_sim.Interp.output
              | Error e ->
                Alcotest.failf "%s/%s/%s trapped: %s" mname mach_name
                  (Lsra.Allocator.short_name algo)
                  e)
            Lsra.Allocator.heuristics)
        corpus_machines)
    Lsra_workloads.Mini_corpus.all

let suite =
  suite
  @ [ Alcotest.test_case "corpus across allocators" `Quick test_corpus ]

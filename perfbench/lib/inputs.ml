(* Workload inputs. Everything here is a pure function of its arguments:
   the same seed gives byte-identical programs, orders and request
   streams. The library under test only ever sees the generated program
   text.

   The compiled programs of jit-small and table3-large are generated
   programs too, but from fixed generator seeds: code size, dynamic
   instruction counts and peak memory are exact functions of the
   programs, and a regression bound of half a percent on them only holds
   if they do not move with the run seed. The same goes for serve-zipf's
   programs and for how often each is requested, which together set the
   cost of a request stream. The run seed orders every timed pass and
   serve-zipf's requests. *)

open Lsra_ir
open Lsra_target
open Lsra_workloads

type unit_ = {
  name : string;
  source : string;  (** textual IR, as a client would send it *)
  input : string;  (** fed to ext_getc when the program runs *)
}

(* The register-starved machine: 8 integer and 8 float registers, 4
   caller-saved each. The same machine as [lsra_tool -m small:8:8]. *)
let small8 =
  Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
    ~float_caller_saved:4 ()

(* The name [lsra_tool -m] accepts for a machine built here. *)
let cli_machine m = if m == Machine.alpha_like then "alpha" else Machine.name m

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permutation rng n =
  let a = Array.init n Fun.id in
  shuffle rng a;
  a

let of_program ~name ?(input = "") prog =
  { name; source = Lsra_text.Ir_text.to_string prog; input }

(* --- jit-small ---------------------------------------------------- *)

(* Stratum [k] of the small-function grid: 1-3 functions, 4-30
   statements, 6-24 integer temps. Consecutive strata walk the function
   and statement counts together (period 81) and the temp count with a
   coprime stride (period 19), so any run of a few hundred strata covers
   every value of every dimension about equally often. *)
let jit_shape k = (1 + (k mod 3), 4 + (k / 3 mod 27), 6 + (k * 7 mod 19))

(* The program of generator seed [gen_seed] in stratum [stratum]. *)
let jit_program ~stratum gen_seed =
  let n_funcs, n_stmts, n_temps = jit_shape stratum in
  let params =
    { Gen.default_params with Gen.seed = gen_seed; n_funcs; n_stmts; n_temps }
  in
  of_program
    ~name:(Printf.sprintf "jit%06d" gen_seed)
    (Gen.program ~params Machine.alpha_like)

(* Generator seeds 0 .. count-1, one program per stratum. *)
let jit_small ~count = Array.init count (fun i -> jit_program ~stratum:i i)

(* --- table3-large ------------------------------------------------- *)

let table3_windows = [| 5; 9; 16 |]

(* The paper's three Table-3 modules plus [procs] single-procedure
   modules whose candidate counts are log-uniform over 1000-8000, one at
   the middle of each stratum, and whose interference windows cycle
   through {5, 9, 16}. *)
let table3_large ~procs =
  let modules =
    Array.map
      (fun (shape : Pressure.shape) ->
        of_program ~name:shape.sname (Pressure.build Machine.alpha_like shape))
      [| Pressure.cvrin; Pressure.twldrv; Pressure.fpppp |]
  in
  let scaled =
    Array.init procs (fun j ->
        let candidates =
          int_of_float
            (Float.round
               (1000. *. (8. ** ((float_of_int j +. 0.5) /. float_of_int procs))))
        in
        let window = table3_windows.(j mod Array.length table3_windows) in
        of_program
          ~name:(Printf.sprintf "scaled%02d-c%d-w%d" j candidates window)
          (Pressure.scaled ~candidates ~window Machine.alpha_like))
  in
  Array.append modules scaled

(* --- spill-small8 ------------------------------------------------- *)

(* The eleven Specbench programs and the Minilang corpus, on small-8.
   The set is fixed; the seed only orders the runs. *)
let spill_small8 ~scale =
  let spec =
    List.map
      (fun (c : Specbench.case) ->
        of_program ~name:("spec:" ^ c.name) ~input:c.input c.program)
      (Specbench.all small8 ~scale)
  in
  let mini =
    List.filter_map
      (fun { Mini_corpus.mname; source; minput } ->
        match Lsra_frontend.Minilang.compile small8 source with
        | prog -> Some (of_program ~name:("mini:" ^ mname) ~input:minput prog)
        | exception Lsra_frontend.Lower.Error _ -> None)
      Mini_corpus.all
  in
  Array.of_list (spec @ mini)

(* --- serve-zipf --------------------------------------------------- *)

type request = Hot of int | Cold of int

(* The hot set stands for the programs a deployment has already cached,
   the cold pool for programs it has never seen. Both spread over the
   jit-small strata, from generator seeds no other workload uses. *)
let serve_hot ~count =
  Array.init count (fun i -> jit_program ~stratum:(i * 5) (900_000 + i))

let serve_cold ~count =
  Array.init count (fun i ->
      let u = jit_program ~stratum:(i * 7) (500_000 + i) in
      { u with name = Printf.sprintf "cold%05d" i })

(* Cumulative Zipf(s) weights over ranks 1..n. *)
let zipf_cdf ~s n =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* How many of [total] requests go to each of ranks 1..n under Zipf(s):
   the expected counts, rounded by largest remainder (ties to the lower
   rank) so that they sum to [total]. *)
let zipf_counts ~s n total =
  let cdf = zipf_cdf ~s n in
  let share r = (cdf.(r) -. if r = 0 then 0. else cdf.(r - 1)) *. float_of_int total in
  let counts = Array.init n (fun r -> int_of_float (share r)) in
  let short = total - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init n Fun.id in
  let remainder r = share r -. float_of_int counts.(r) in
  Array.stable_sort (fun a b -> compare (remainder b) (remainder a)) by_remainder;
  for k = 0 to short - 1 do
    let r = by_remainder.(k) in
    counts.(r) <- counts.(r) + 1
  done;
  counts

(* A request stream in blocks of [period]: one never-seen program per
   block at a seeded position, the rest hot programs, hot program [r]
   having rank [r]. The hot requests are a fixed Zipf(s) mix
   ([zipf_counts]) in a seeded order, not independent draws: a request
   costs more the larger its program, and independent draws would make
   the cost of the whole stream move with the seed by a few percent.
   Cold programs are consumed in order. *)
let serve_stream ~seed ~hot ~cold ~period ~s =
  let rng = rng ~seed ~salt:7 in
  let hot_ranks =
    zipf_counts ~s hot (cold * (period - 1))
    |> Array.mapi (fun r k -> Array.make k r)
    |> Array.to_list |> Array.concat
  in
  shuffle rng hot_ranks;
  let next = ref 0 in
  let blocks =
    Array.init cold (fun c ->
        let at = Random.State.int rng period in
        Array.init period (fun k ->
            if k = at then Cold c
            else begin
              let r = hot_ranks.(!next) in
              incr next;
              Hot r
            end))
  in
  Array.concat (Array.to_list blocks)

let n_instrs prog =
  List.fold_left (fun acc (_, f) -> acc + Func.n_instrs f) 0 (Program.funcs prog)

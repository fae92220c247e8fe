open Lsra_ir
open Wutil

(* Synthetic stand-ins for the paper's benchmark set (Table 1): each
   program reproduces the register-pressure and call/loop profile that
   drives its benchmark's allocation behaviour on the paper's Alpha.

   - no-spill group (alvinn li tomcatv compress wc): working sets well
     under the register files;
   - light spill (eqntott m88ksim sort doduc espresso): one or a few
     blocks slightly over pressure, cold or warm;
   - heavy spill (fpppp): huge straight-line blocks with several times
     more simultaneously-live floats than registers.

   Every program prints a checksum through ext_puti/ext_putf so
   differential tests catch any miscompilation. *)

type case = {
  name : string;
  description : string;
  program : Program.t;
  input : string;
}

let text_input n =
  (* deterministic pseudo-text with words, lines, punctuation *)
  String.init n (fun i ->
      let r = (i * 2654435761) land 0xffff in
      match r mod 17 with
      | 0 | 1 -> ' '
      | 2 -> '\n'
      | k -> Char.chr (97 + (k + i) mod 26))

(* ------------------------------------------------------------------ *)
(* wc: getc loop; counters plus a bank of read-mostly classifier
   constants live across the call. Two-pass binpacking cannot keep the
   bank in caller-saved registers (no hole spans the call), which is the
   paper's §3.1 wc experiment. *)
let wc machine ~scale =
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  (* a bank of cold values defined first: they are live across every getc
     call until the final summary, so the traditional two-pass allocator
     (first come, first served over whole lifetimes) parks them in the
     callee-saved file and then has nowhere register-resident to put the
     hot counters; second chance simply displaces them when the counters
     arrive (§3.1's wc experiment). *)
  let weights = List.init 14 (fun k ->
      let t = itemp ~name:(Printf.sprintf "k%d" k) ctx in
      B.li b t ((k * 13) + 7);
      t)
  in
  let lines = itemp ~name:"lines" ctx in
  let words = itemp ~name:"words" ctx in
  let chars = itemp ~name:"chars" ctx in
  let in_word = itemp ~name:"in_word" ctx in
  B.li b lines 0;
  B.li b words 0;
  B.li b chars 0;
  B.li b in_word 0;
  let c = itemp ~name:"c" ctx in
  let running = label ctx "scan" in
  let body = label ctx "chr" in
  let fin = label ctx "fin" in
  B.start_block b running;
  getc ctx c;
  B.branch b Instr.Lt (ti c) (ci 0) ~ifso:fin ~ifnot:body;
  B.start_block b body;
  B.bin b Instr.Add chars (ti chars) (ci 1);
  if_ ctx Instr.Eq (ti c) (ci 10)
    ~then_:(fun () -> B.bin b Instr.Add lines (ti lines) (ci 1))
    ~else_:(fun () -> ());
  if_ ctx Instr.Le (ti c) (ci 32)
    ~then_:(fun () -> B.li b in_word 0)
    ~else_:(fun () ->
      if_ ctx Instr.Eq (ti in_word) (ci 0)
        ~then_:(fun () ->
          B.li b in_word 1;
          B.bin b Instr.Add words (ti words) (ci 1))
        ~else_:(fun () -> ()));
  B.jump b running;
  B.start_block b fin;
  (* final summary folds the cold bank *)
  let wsum = itemp ~name:"wsum" ctx in
  B.li b wsum 0;
  List.iter
    (fun w ->
      let m = itemp ctx in
      B.bin b Instr.Xor m (ti chars) (ti w);
      B.bin b Instr.And m (ti m) (ti w);
      B.bin b Instr.Add wsum (ti wsum) (ti m))
    weights;
  puti ctx (ti lines);
  puti ctx (ti words);
  puti ctx (ti chars);
  puti ctx (ti wsum);
  return_int ctx (ti chars);
  let f = finish ctx in
  {
    name = "wc";
    description = "getc loop; counters + read-mostly bank live across calls";
    program = Program.create ~main:"main" [ ("main", f) ];
    input = text_input (400 * scale);
  }

(* ------------------------------------------------------------------ *)
(* eqntott: dominated by cmppt(), a tiny comparison loop over two arrays
   of sign/magnitude pairs; negligible pressure in the hot path. *)
let eqntott machine ~scale =
  let n = 64 in
  let base_a = 0 and base_b = 256 in
  (* cmppt(a_idx, b_idx): lexicographic compare of two n-entry rows *)
  let cmp = create ~name:"cmppt" machine in
  B.start_block cmp.b "entry";
  let pa = param_int cmp 0 in
  let pb = param_int cmp 1 in
  let res = itemp ~name:"res" cmp in
  B.li cmp.b res 0;
  let brk = label cmp "brk" in
  let cont = label cmp "cont" in
  let head = label cmp "head" in
  let lbody = label cmp "lbody" in
  let i = itemp ~name:"i" cmp in
  B.li cmp.b i 0;
  B.start_block cmp.b head;
  B.branch cmp.b Instr.Lt (ti i) (ci n) ~ifso:lbody ~ifnot:brk;
  B.start_block cmp.b lbody;
  let va = itemp cmp and vb = itemp cmp in
  let aa = itemp cmp and ab = itemp cmp in
  B.bin cmp.b Instr.Add aa (ti pa) (ti i);
  B.load cmp.b va (ti aa) base_a;
  B.bin cmp.b Instr.Add ab (ti pb) (ti i);
  B.load cmp.b vb (ti ab) base_b;
  if_ cmp Instr.Lt (ti va) (ti vb)
    ~then_:(fun () ->
      B.li cmp.b res (-1);
      B.jump cmp.b brk;
      B.start_block cmp.b (label cmp "dead1"))
    ~else_:(fun () ->
      if_ cmp Instr.Gt (ti va) (ti vb)
        ~then_:(fun () ->
          B.li cmp.b res 1;
          B.jump cmp.b brk;
          B.start_block cmp.b (label cmp "dead2"))
        ~else_:(fun () -> ()));
  B.jump cmp.b cont;
  B.start_block cmp.b cont;
  B.bin cmp.b Instr.Add i (ti i) (ci 1);
  B.jump cmp.b head;
  B.start_block cmp.b brk;
  return_int cmp (ti res);
  let cmppt = finish cmp in

  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  (* fill the two tables (wide enough for every offset cmppt reaches) *)
  let _ =
    for_ ctx ~below:(ci (n + 64)) (fun i ->
        let v = itemp ctx in
        B.bin b Instr.Mul v (ti i) (ci 37);
        B.bin b Instr.And v (ti v) (ci 255);
        store_at ctx ~base:base_a ~idx:(ti i) (ti v);
        (* the b table differs from a only at sparse positions, so cmppt
           scans a long prefix before deciding — as in the real benchmark,
           where pterm comparisons dominate everything else *)
        let noise = itemp ctx in
        B.bin b Instr.Rem noise (ti i) (ci 31);
        let hit = itemp ctx in
        B.cmp b Instr.Eq hit (ti noise) (ci 30);
        let w = itemp ctx in
        B.bin b Instr.Add w (ti v) (ti hit);
        store_at ctx ~base:base_b ~idx:(ti i) (ti w))
  in
  let total = itemp ~name:"total" ctx in
  B.li b total 0;
  let _ =
    for_ ctx ~below:(ci (40 * scale)) (fun k ->
        let off = itemp ctx in
        B.bin b Instr.And off (ti k) (ci 31);
        let r = itemp ctx in
        call_int ctx ~func:"cmppt" ~args:[ ti off; ti off ] ~ret:(Some r);
        B.bin b Instr.Add total (ti total) (ti r);
        let r2 = itemp ctx in
        call_int ctx ~func:"cmppt" ~args:[ ci 0; ti off ] ~ret:(Some r2);
        B.bin b Instr.Sub total (ti total) (ti r2))
  in
  puti ctx (ti total);
  return_int ctx (ti total);
  let main = finish ctx in
  {
    name = "eqntott";
    description = "hot cmppt() comparison loop, minimal pressure";
    program = Program.create ~main:"main" [ ("main", main); ("cmppt", cmppt) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* compress: hash/code loop over input characters; moderate working set,
   no spills. *)
let compress machine ~scale =
  let table = 1024 in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ = for_ ctx ~below:(ci table) (fun i ->
      store_at ctx ~base:0 ~idx:(ti i) (ci 0))
  in
  let code = itemp ~name:"code" ctx in
  let next = itemp ~name:"next" ctx in
  let hits = itemp ~name:"hits" ctx in
  let misses = itemp ~name:"miss" ctx in
  let checksum = itemp ~name:"ck" ctx in
  B.li b code 0;
  B.li b next 256;
  B.li b hits 0;
  B.li b misses 0;
  B.li b checksum 0;
  let c = itemp ~name:"c" ctx in
  let scan = label ctx "scan" in
  let body = label ctx "body" in
  let fin = label ctx "fin" in
  B.start_block b scan;
  getc ctx c;
  B.branch b Instr.Lt (ti c) (ci 0) ~ifso:fin ~ifnot:body;
  B.start_block b body;
  let h = itemp ~name:"h" ctx in
  B.bin b Instr.Sll h (ti code) (ci 4);
  B.bin b Instr.Xor h (ti h) (ti c);
  B.bin b Instr.And h (ti h) (ci (table - 1));
  let e = itemp ~name:"e" ctx in
  load_at ctx ~base:0 ~idx:(ti h) e;
  if_ ctx Instr.Ne (ti e) (ci 0)
    ~then_:(fun () ->
      B.bin b Instr.Add hits (ti hits) (ci 1);
      B.movet b code (ti e))
    ~else_:(fun () ->
      B.bin b Instr.Add misses (ti misses) (ci 1);
      store_at ctx ~base:0 ~idx:(ti h) (ti next);
      B.bin b Instr.Add next (ti next) (ci 1);
      B.movet b code (ti c));
  B.bin b Instr.Mul checksum (ti checksum) (ci 31);
  B.bin b Instr.Xor checksum (ti checksum) (ti code);
  B.jump b scan;
  B.start_block b fin;
  puti ctx (ti hits);
  puti ctx (ti misses);
  puti ctx (ti checksum);
  return_int ctx (ti checksum);
  let f = finish ctx in
  {
    name = "compress";
    description = "hash-table coding loop, moderate working set";
    program = Program.create ~main:"main" [ ("main", f) ];
    input = text_input (600 * scale);
  }

(* ------------------------------------------------------------------ *)
(* li: cons-cell heap, recursive traversal, call-heavy with parameter
   moves; no pressure. *)
let li machine ~scale =
  (* sum_list(p): recursive sum over cells [car; cdr] *)
  let s = create ~name:"sum_list" machine in
  B.start_block s.b "entry";
  let p = param_int s 0 in
  let nil = label s "nil" in
  let cons = label s "cons" in
  B.branch s.b Instr.Eq (ti p) (ci 0) ~ifso:nil ~ifnot:cons;
  B.start_block s.b cons;
  let car = itemp s and cdr = itemp s in
  B.load s.b car (ti p) 0;
  B.load s.b cdr (ti p) 1;
  let rest = itemp s in
  call_int s ~func:"sum_list" ~args:[ ti cdr ] ~ret:(Some rest);
  (* per-cell computation, so the call/move fraction resembles a real
     interpreter rather than pure call overhead *)
  let x = itemp s and y = itemp s and z = itemp s in
  B.bin s.b Instr.Mul x (ti car) (ci 3);
  B.bin s.b Instr.Srl y (ti car) (ci 2);
  B.bin s.b Instr.Xor z (ti x) (ti y);
  B.bin s.b Instr.And z (ti z) (ci 0xfffff);
  B.bin s.b Instr.Add z (ti z) (ti car);
  B.bin s.b Instr.Sll x (ti z) (ci 1);
  B.bin s.b Instr.Sub x (ti x) (ti z);
  B.bin s.b Instr.Xor x (ti x) (ci 0x2a);
  B.bin s.b Instr.Mul y (ti x) (ci 5);
  B.bin s.b Instr.Srl z (ti y) (ci 3);
  B.bin s.b Instr.Xor x (ti x) (ti z);
  B.bin s.b Instr.Add x (ti x) (ti y);
  B.bin s.b Instr.And x (ti x) (ci 0xfffff);
  B.bin s.b Instr.Mul y (ti x) (ci 7);
  B.bin s.b Instr.Srl z (ti y) (ci 5);
  B.bin s.b Instr.Xor x (ti x) (ti z);
  B.bin s.b Instr.Add x (ti x) (ti y);
  B.bin s.b Instr.And x (ti x) (ci 0xfffff);
  let r = itemp s in
  B.bin s.b Instr.Add r (ti x) (ti rest);
  B.bin s.b Instr.And r (ti r) (ci 0xffffff);
  return_int s (ti r);
  B.start_block s.b nil;
  return_int s (ci 0);
  let sum_list = finish s in

  (* rev_onto(p, acc): iterative reverse, returns new list head *)
  let rv = create ~name:"rev_onto" machine in
  B.start_block rv.b "entry";
  let p = param_int rv 0 in
  let acc = param_int rv 1 in
  let head = label rv "head" in
  let lbody = label rv "lbody" in
  let out = label rv "out" in
  B.start_block rv.b head;
  B.branch rv.b Instr.Eq (ti p) (ci 0) ~ifso:out ~ifnot:lbody;
  B.start_block rv.b lbody;
  let car = itemp rv and cdr = itemp rv in
  B.load rv.b car (ti p) 0;
  B.load rv.b cdr (ti p) 1;
  let cell = itemp rv in
  call_int rv ~func:"ext_alloc" ~args:[ ci 2 ] ~ret:(Some cell);
  B.store rv.b (ti car) (ti cell) 0;
  B.store rv.b (ti acc) (ti cell) 1;
  B.movet rv.b acc (ti cell);
  B.movet rv.b p (ti cdr);
  B.jump rv.b head;
  B.start_block rv.b out;
  return_int rv (ti acc);
  let rev_onto = finish rv in

  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let list = itemp ~name:"list" ctx in
  B.li b list 0;
  let _ =
    for_ ctx ~below:(ci (20 * scale)) (fun i ->
        let cell = itemp ctx in
        call_int ctx ~func:"ext_alloc" ~args:[ ci 2 ] ~ret:(Some cell);
        let v = itemp ctx in
        B.bin b Instr.Mul v (ti i) (ti i);
        B.store b (ti v) (ti cell) 0;
        B.store b (ti list) (ti cell) 1;
        B.movet b list (ti cell))
  in
  let total = itemp ~name:"total" ctx in
  B.li b total 0;
  let _ =
    for_ ctx ~below:(ci 6) (fun _ ->
        let rev = itemp ctx in
        call_int ctx ~func:"rev_onto" ~args:[ ti list; ci 0 ] ~ret:(Some rev);
        let sum = itemp ctx in
        call_int ctx ~func:"sum_list" ~args:[ ti rev ] ~ret:(Some sum);
        B.bin b Instr.Add total (ti total) (ti sum))
  in
  puti ctx (ti total);
  return_int ctx (ti total);
  let main = finish ctx in
  {
    name = "li";
    description = "cons cells, recursion, call-heavy with parameter moves";
    program =
      Program.create ~heap_words:(1 lsl 18) ~main:"main"
        [ ("main", main); ("sum_list", sum_list); ("rev_onto", rev_onto) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* sort: quicksort with values live across recursive calls, plus a
   mildly over-pressure checksum block; light spill. *)
let sort machine ~scale =
  let n = 128 * scale in
  let base = 0 in
  (* qsort(lo, hi) over heap[base..] *)
  let q = create ~name:"qsort" machine in
  B.start_block q.b "entry";
  let lo = param_int q 0 in
  let hi = param_int q 1 in
  let out = label q "out" in
  let work = label q "work" in
  B.branch q.b Instr.Ge (ti lo) (ti hi) ~ifso:out ~ifnot:work;
  B.start_block q.b work;
  (* partition around heap[hi] *)
  let pivot = itemp ~name:"pivot" q in
  let ah = itemp q in
  B.bin q.b Instr.Add ah (ti hi) (ci base);
  B.load q.b pivot (ti ah) 0;
  let store_idx = itemp ~name:"si" q in
  B.movet q.b store_idx (ti lo);
  let j = itemp ~name:"j" q in
  B.movet q.b j (ti lo);
  let phead = label q "phead" in
  let pbody = label q "pbody" in
  let pdone = label q "pdone" in
  B.start_block q.b phead;
  B.branch q.b Instr.Lt (ti j) (ti hi) ~ifso:pbody ~ifnot:pdone;
  B.start_block q.b pbody;
  let vj = itemp q in
  let aj = itemp q in
  B.bin q.b Instr.Add aj (ti j) (ci base);
  B.load q.b vj (ti aj) 0;
  if_ q Instr.Lt (ti vj) (ti pivot)
    ~then_:(fun () ->
      (* swap heap[j] heap[store_idx] *)
      let asi = itemp q in
      B.bin q.b Instr.Add asi (ti store_idx) (ci base);
      let vsi = itemp q in
      B.load q.b vsi (ti asi) 0;
      B.store q.b (ti vj) (ti asi) 0;
      B.store q.b (ti vsi) (ti aj) 0;
      B.bin q.b Instr.Add store_idx (ti store_idx) (ci 1))
    ~else_:(fun () -> ());
  B.bin q.b Instr.Add j (ti j) (ci 1);
  B.jump q.b phead;
  B.start_block q.b pdone;
  (* swap pivot into place *)
  let asi = itemp q in
  B.bin q.b Instr.Add asi (ti store_idx) (ci base);
  let vsi = itemp q in
  B.load q.b vsi (ti asi) 0;
  B.store q.b (ti pivot) (ti asi) 0;
  B.store q.b (ti vsi) (ti ah) 0;
  (* recurse on both halves; lo/hi/store_idx live across the calls *)
  let m1 = itemp q in
  B.bin q.b Instr.Sub m1 (ti store_idx) (ci 1);
  call_int q ~func:"qsort" ~args:[ ti lo; ti m1 ] ~ret:None;
  let p1 = itemp q in
  B.bin q.b Instr.Add p1 (ti store_idx) (ci 1);
  call_int q ~func:"qsort" ~args:[ ti p1; ti hi ] ~ret:None;
  B.jump q.b out;
  B.start_block q.b out;
  return_int q (ci 0);
  let qsort = finish q in

  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci n) (fun i ->
        let v = itemp ctx in
        B.bin b Instr.Mul v (ti i) (ci 1103515245);
        B.bin b Instr.Add v (ti v) (ci 12345);
        B.bin b Instr.And v (ti v) (ci 0xffff);
        store_at ctx ~base ~idx:(ti i) (ti v))
  in
  call_int ctx ~func:"qsort" ~args:[ ci 0; ci (n - 1) ] ~ret:None;
  (* wide checksum over a short prefix: 30 partial sums live at once, so
     the block is over pressure, but it is only warm, not hot (the paper's
     sort spills ~1% of dynamic instructions) *)
  let parts = List.init 30 (fun k ->
      let t = itemp ~name:(Printf.sprintf "p%d" k) ctx in
      B.li b t k;
      t)
  in
  let _ =
    for_ ctx ~below:(ci 24) (fun i ->
        let v = itemp ctx in
        load_at ctx ~base ~idx:(ti i) v;
        let lane = itemp ctx in
        B.bin b Instr.And lane (ti i) (ci 1);
        if_ ctx Instr.Eq (ti lane) (ci 0)
          ~then_:(fun () ->
            List.iteri
              (fun k t ->
                if k mod 2 = 0 then B.bin b Instr.Add t (ti t) (ti v))
              parts)
          ~else_:(fun () ->
            List.iteri
              (fun k t ->
                if k mod 2 = 1 then B.bin b Instr.Xor t (ti t) (ti v))
              parts))
  in
  let h = itemp ~name:"h" ctx in
  B.li b h 0;
  List.iter
    (fun t ->
      B.bin b Instr.Mul h (ti h) (ci 33);
      B.bin b Instr.Xor h (ti h) (ti t))
    parts;
  (* verify sortedness *)
  let bad = itemp ~name:"bad" ctx in
  B.li b bad 0;
  let _ =
    for_ ctx ~below:(ci (n - 1)) (fun i ->
        let v1 = itemp ctx and v2 = itemp ctx in
        load_at ctx ~base ~idx:(ti i) v1;
        let i2 = itemp ctx in
        B.bin b Instr.Add i2 (ti i) (ci 1);
        load_at ctx ~base ~idx:(ti i2) v2;
        if_ ctx Instr.Gt (ti v1) (ti v2)
          ~then_:(fun () -> B.bin b Instr.Add bad (ti bad) (ci 1))
          ~else_:(fun () -> ()))
  in
  puti ctx (ti bad);
  puti ctx (ti h);
  return_int ctx (ti h);
  let main = finish ctx in
  {
    name = "sort";
    description = "quicksort: values live across recursion + wide checksum";
    program =
      Program.create ~heap_words:(1 lsl 18) ~main:"main"
        [ ("main", main); ("qsort", qsort) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* tomcatv: 2D five-point float stencil, small fp working set, no
   spills, near-identical code under both allocators. *)
let tomcatv machine ~scale =
  let n = 24 in
  let base_x = 0 and base_y = n * n in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci (n * n)) (fun i ->
        let v = ftemp ctx in
        let iv = itemp ctx in
        B.bin b Instr.And iv (ti i) (ci 63);
        B.un b Instr.Itof v (ti iv);
        let a = itemp ctx in
        B.bin b Instr.Add a (ti i) (ci base_x);
        B.store b (ti v) (ti a) 0;
        let ay = itemp ctx in
        B.bin b Instr.Add ay (ti i) (ci base_y);
        B.store b (ti v) (ti ay) 0)
  in
  let residual = ftemp ~name:"residual" ctx in
  B.lf b residual 0.0;
  let _ =
    for_ ctx ~below:(ci (4 * scale)) (fun _sweep ->
        let _ =
          for_ ctx ~from:1 ~below:(ci (n - 1)) (fun r ->
              let _ =
                for_ ctx ~from:1 ~below:(ci (n - 1)) (fun cidx ->
                    let at = itemp ctx in
                    B.bin b Instr.Mul at (ti r) (ci n);
                    B.bin b Instr.Add at (ti at) (ti cidx);
                    let centre = ftemp ctx and north = ftemp ctx in
                    let south = ftemp ctx and east = ftemp ctx in
                    let west = ftemp ctx in
                    let a = itemp ctx in
                    B.bin b Instr.Add a (ti at) (ci base_x);
                    B.load b centre (ti a) 0;
                    B.load b north (ti a) (-n);
                    B.load b south (ti a) n;
                    B.load b east (ti a) 1;
                    B.load b west (ti a) (-1);
                    let sum = ftemp ctx in
                    B.bin b Instr.Fadd sum (ti north) (ti south);
                    B.bin b Instr.Fadd sum (ti sum) (ti east);
                    B.bin b Instr.Fadd sum (ti sum) (ti west);
                    B.bin b Instr.Fmul sum (ti sum) (cf 0.25);
                    let diff = ftemp ctx in
                    B.bin b Instr.Fsub diff (ti sum) (ti centre);
                    let upd = ftemp ctx in
                    B.bin b Instr.Fmul upd (ti diff) (cf 0.5);
                    B.bin b Instr.Fadd upd (ti upd) (ti centre);
                    let ay = itemp ctx in
                    B.bin b Instr.Add ay (ti at) (ci base_y);
                    B.store b (ti upd) (ti ay) 0;
                    let ad = ftemp ctx in
                    B.bin b Instr.Fmul ad (ti diff) (ti diff);
                    B.bin b Instr.Fadd residual (ti residual) (ti ad))
              in
              ())
        in
        (* copy back *)
        let _ =
          for_ ctx ~below:(ci (n * n)) (fun i ->
              let v = ftemp ctx in
              let ay = itemp ctx in
              B.bin b Instr.Add ay (ti i) (ci base_y);
              B.load b v (ti ay) 0;
              let ax = itemp ctx in
              B.bin b Instr.Add ax (ti i) (ci base_x);
              B.store b (ti v) (ti ax) 0)
        in
        ())
  in
  putf ctx (ti residual);
  return_int ctx (ci 0);
  let main = finish ctx in
  {
    name = "tomcatv";
    description = "five-point float stencil, small fp working set";
    program = Program.create ~heap_words:(1 lsl 16) ~main:"main" [ ("main", main) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* alvinn: neural-net forward/backward-ish passes; fp dot products with
   small working sets; no spills. *)
let alvinn machine ~scale =
  let n_in = 32 and n_hid = 12 in
  let base_in = 0 in
  let base_w = 64 in (* n_hid rows of n_in *)
  let base_hid = 2048 in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci n_in) (fun i ->
        let v = ftemp ctx in
        B.un b Instr.Itof v (ti i);
        B.bin b Instr.Fmul v (ti v) (cf 0.125);
        store_at ctx ~base:base_in ~idx:(ti i) (ti v))
  in
  let _ =
    for_ ctx ~below:(ci (n_in * n_hid)) (fun i ->
        let m = itemp ctx in
        B.bin b Instr.And m (ti i) (ci 31);
        let v = ftemp ctx in
        B.un b Instr.Itof v (ti m);
        B.bin b Instr.Fmul v (ti v) (cf 0.0625);
        B.bin b Instr.Fsub v (ti v) (cf 0.4);
        store_at ctx ~base:base_w ~idx:(ti i) (ti v))
  in
  let energy = ftemp ~name:"energy" ctx in
  B.lf b energy 0.0;
  let _ =
    for_ ctx ~below:(ci (6 * scale)) (fun _epoch ->
        let _ =
          for_ ctx ~below:(ci n_hid) (fun h ->
              let acc = ftemp ~name:"acc" ctx in
              B.lf b acc 0.0;
              let row = itemp ctx in
              B.bin b Instr.Mul row (ti h) (ci n_in);
              let _ =
                for_ ctx ~below:(ci n_in) (fun i ->
                    let x = ftemp ctx and w = ftemp ctx in
                    load_at ctx ~base:base_in ~idx:(ti i) x;
                    let wi = itemp ctx in
                    B.bin b Instr.Add wi (ti row) (ti i);
                    load_at ctx ~base:base_w ~idx:(ti wi) w;
                    let p = ftemp ctx in
                    B.bin b Instr.Fmul p (ti x) (ti w);
                    B.bin b Instr.Fadd acc (ti acc) (ti p))
              in
              (* smooth activation: a / (1 + |a|) approximated without
                 division by a cubic *)
              let a2 = ftemp ctx and a3 = ftemp ctx in
              B.bin b Instr.Fmul a2 (ti acc) (ti acc);
              B.bin b Instr.Fmul a3 (ti a2) (ti acc);
              let act = ftemp ctx in
              B.bin b Instr.Fmul act (ti a3) (cf 0.01);
              B.bin b Instr.Fsub act (ti acc) (ti act);
              store_at ctx ~base:base_hid ~idx:(ti h) (ti act);
              let e2 = ftemp ctx in
              B.bin b Instr.Fmul e2 (ti act) (ti act);
              B.bin b Instr.Fadd energy (ti energy) (ti e2))
        in
        ())
  in
  putf ctx (ti energy);
  return_int ctx (ci 0);
  let main = finish ctx in
  {
    name = "alvinn";
    description = "neural-net dot products, small fp working set";
    program = Program.create ~heap_words:(1 lsl 14) ~main:"main" [ ("main", main) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* fpppp: enormous straight-line float blocks — several times more
   simultaneously-live values than registers; both allocators spill
   heavily (paper: 18.6% / 13.4% of dynamic instructions). *)
let fpppp machine ~scale =
  let width = 72 in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci width) (fun i ->
        let v = ftemp ctx in
        B.un b Instr.Itof v (ti i);
        B.bin b Instr.Fmul v (ti v) (cf 0.37);
        B.bin b Instr.Fadd v (ti v) (cf 1.0);
        store_at ctx ~base:0 ~idx:(ti i) (ti v))
  in
  let total = ftemp ~name:"total" ctx in
  B.lf b total 0.0;
  let _ =
    for_ ctx ~below:(ci (3 * scale)) (fun it ->
        (* load the whole working set into temps *)
        let ts =
          Array.init width (fun k ->
              let t = ftemp ~name:(Printf.sprintf "v%d" k) ctx in
              load_at ctx ~base:0 ~idx:(ci k) t;
              t)
        in
        (* two all-pairs-ish reduction rounds keep every value live for
           the whole block; short branches between chunks (as in the real
           code's error/cutoff tests) split the lifetimes across edges,
           which is what drives the paper's resolution spill stores *)
        let acc = ftemp ~name:"acc" ctx in
        B.lf b acc 0.0;
        let chunk shift lo hi =
          for k = lo to hi - 1 do
            let p = ftemp ctx in
            B.bin b Instr.Fmul p (ti ts.(k)) (ti ts.((k + shift) mod width));
            B.bin b Instr.Fadd acc (ti acc) (ti p)
          done
        in
        let branchy shift =
          let quarters = 4 in
          let q = width / quarters in
          for c = 0 to quarters - 1 do
            chunk shift (c * q) ((c + 1) * q);
            let gate = itemp ctx in
            B.bin b Instr.And gate (ti it) (ci (c + 1));
            if_ ctx Instr.Eq (ti gate) (ci 0)
              ~then_:(fun () ->
                B.bin b Instr.Fmul acc (ti acc) (cf 0.9999))
              ~else_:(fun () ->
                B.bin b Instr.Fadd acc (ti acc) (cf 0.0001))
          done
        in
        branchy 7;
        branchy 31;
        (* update the working set in place (keeps defs hot as well) *)
        for k = 0 to width - 1 do
          let u = ftemp ctx in
          B.bin b Instr.Fmul u (ti ts.(k)) (cf 0.999);
          store_at ctx ~base:0 ~idx:(ci k) (ti u)
        done;
        B.bin b Instr.Fadd total (ti total) (ti acc))
  in
  putf ctx (ti total);
  return_int ctx (ci 0);
  let main = finish ctx in
  {
    name = "fpppp";
    description = "huge straight-line fp blocks; pressure >> registers";
    program = Program.create ~heap_words:4096 ~main:"main" [ ("main", main) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* doduc: several alternative medium-pressure fp branches inside a warm
   loop; slight spill under both allocators. *)
let doduc machine ~scale =
  let width = 30 in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci 64) (fun i ->
        let v = ftemp ctx in
        B.un b Instr.Itof v (ti i);
        B.bin b Instr.Fmul v (ti v) (cf 0.21);
        B.bin b Instr.Fadd v (ti v) (cf 0.5);
        store_at ctx ~base:0 ~idx:(ti i) (ti v))
  in
  let total = ftemp ~name:"total" ctx in
  B.lf b total 0.0;
  let _ =
    for_ ctx ~below:(ci (12 * scale)) (fun it ->
        (* shared working set, live across whichever physics branch is
           taken this iteration; the branch arms fold it differently, so
           a linear allocator reaches the join with arm-specific
           assumptions and pays resolution code on the other edge *)
        let ts =
          Array.init width (fun k ->
              let t = ftemp ctx in
              load_at ctx ~base:0 ~idx:(ci (k * 2)) t;
              t)
        in
        let acc = ftemp ~name:"acc" ctx in
        B.lf b acc 0.0;
        let fold shift mult =
          for k = 0 to width - 1 do
            let p = ftemp ctx in
            B.bin b Instr.Fmul p (ti ts.(k)) (ti ts.((k + shift) mod width));
            B.bin b Instr.Fmul p (ti p) (cf mult);
            B.bin b Instr.Fadd acc (ti acc) (ti p)
          done
        in
        let sel = itemp ctx in
        B.bin b Instr.And sel (ti it) (ci 1);
        if_ ctx Instr.Eq (ti sel) (ci 0)
          ~then_:(fun () -> fold 3 0.5)
          ~else_:(fun () -> fold 11 0.25);
        (* the join still needs the whole set *)
        for k = 0 to width - 1 do
          let u = ftemp ctx in
          B.bin b Instr.Fmul u (ti ts.(k)) (cf 0.999);
          store_at ctx ~base:0 ~idx:(ci (k * 2)) (ti u)
        done;
        B.bin b Instr.Fadd total (ti total) (ti acc))
  in
  putf ctx (ti total);
  return_int ctx (ci 0);
  let main = finish ctx in
  {
    name = "doduc";
    description = "alternative medium-pressure fp branches; slight spill";
    program = Program.create ~heap_words:4096 ~main:"main" [ ("main", main) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* espresso: bit-vector cube operations across helper calls, a warm
   medium-pressure block and lots of moves. *)
let espresso machine ~scale =
  let words = 24 in
  let base_a = 0 and base_b = 64 and base_c = 128 in
  (* popcount(idx_base): counts bits over [idx_base, idx_base+words) *)
  let pc = create ~name:"popcount" machine in
  B.start_block pc.b "entry";
  let base = param_int pc 0 in
  let count = itemp ~name:"count" pc in
  B.li pc.b count 0;
  let _ =
    for_ pc ~below:(ci words) (fun i ->
        let a = itemp pc in
        B.bin pc.b Instr.Add a (ti base) (ti i);
        let v = itemp pc in
        B.load pc.b v (ti a) 0;
        let _ =
          for_ pc ~below:(ci 16) (fun _bit ->
              let lsb = itemp pc in
              B.bin pc.b Instr.And lsb (ti v) (ci 1);
              B.bin pc.b Instr.Add count (ti count) (ti lsb);
              B.bin pc.b Instr.Srl v (ti v) (ci 1))
        in
        ())
  in
  return_int pc (ti count);
  let popcount = finish pc in

  (* intersect: c = a & b, word-wise, with a wide unrolled combine *)
  let ix = create ~name:"intersect" machine in
  B.start_block ix.b "entry";
  let _ =
    for_ ix ~below:(ci words) (fun i ->
        let aa = itemp ix and ab = itemp ix and ac = itemp ix in
        B.bin ix.b Instr.Add aa (ti i) (ci base_a);
        B.bin ix.b Instr.Add ab (ti i) (ci base_b);
        B.bin ix.b Instr.Add ac (ti i) (ci base_c);
        let va = itemp ix and vb = itemp ix in
        B.load ix.b va (ti aa) 0;
        B.load ix.b vb (ti ab) 0;
        let vc = itemp ix in
        B.bin ix.b Instr.And vc (ti va) (ti vb);
        B.store ix.b (ti vc) (ti ac) 0)
  in
  return_int ix (ci 0);
  let intersect = finish ix in

  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let _ =
    for_ ctx ~below:(ci words) (fun i ->
        let v = itemp ctx in
        B.bin b Instr.Mul v (ti i) (ci 2654435761);
        B.bin b Instr.And v (ti v) (ci 0xffff);
        store_at ctx ~base:base_a ~idx:(ti i) (ti v);
        let w = itemp ctx in
        B.bin b Instr.Xor w (ti v) (ci 0x5a5a);
        store_at ctx ~base:base_b ~idx:(ti i) (ti w))
  in
  let total = itemp ~name:"total" ctx in
  B.li b total 0;
  let _ =
    for_ ctx ~below:(ci (8 * scale)) (fun round ->
        call_int ctx ~func:"intersect" ~args:[] ~ret:None;
        let n1 = itemp ctx in
        call_int ctx ~func:"popcount" ~args:[ ci base_c ] ~ret:(Some n1);
        B.bin b Instr.Add total (ti total) (ti n1);
        (* warm medium-pressure region: the cube lives in temps across
           two alternative folding arms (sharp / unate cases); whichever
           arm the linear scan walked second leaves its assumptions at the
           join, so the other edge needs resolution code every time it is
           taken *)
        let ts =
          Array.init words (fun k ->
              let t = itemp ctx in
              load_at ctx ~base:base_c ~idx:(ci k) t;
              t)
        in
        let extra =
          Array.init 8 (fun k ->
              let t = itemp ctx in
              B.bin b Instr.Add t (ti round) (ci k);
              t)
        in
        let acc = itemp ctx in
        B.li b acc 0;
        let fold shift =
          Array.iteri
            (fun k t ->
              let p = itemp ctx in
              B.bin b Instr.Xor p (ti t) (ti ts.((k + shift) mod words));
              B.bin b Instr.Add p (ti p) (ti extra.(k mod 8));
              B.bin b Instr.Add acc (ti acc) (ti p))
            ts
        in
        let sel = itemp ctx in
        B.bin b Instr.And sel (ti round) (ci 1);
        if_ ctx Instr.Eq (ti sel) (ci 0)
          ~then_:(fun () -> fold 5)
          ~else_:(fun () -> fold 11);
        (* the join reads the whole cube again *)
        Array.iter
          (fun t -> B.bin b Instr.Add acc (ti acc) (ti t))
          ts;
        B.bin b Instr.Xor total (ti total) (ti acc);
        (* evolve cube a *)
        let _ =
          for_ ctx ~below:(ci words) (fun i ->
              let v = itemp ctx in
              load_at ctx ~base:base_c ~idx:(ti i) v;
              let u = itemp ctx in
              B.bin b Instr.Sll u (ti v) (ci 1);
              B.bin b Instr.Xor u (ti u) (ti round);
              B.bin b Instr.And u (ti u) (ci 0xffff);
              store_at ctx ~base:base_a ~idx:(ti i) (ti u))
        in
        ())
  in
  puti ctx (ti total);
  return_int ctx (ti total);
  let main = finish ctx in
  {
    name = "espresso";
    description = "cube/bitset helpers + warm just-over-pressure block";
    program =
      Program.create ~heap_words:4096 ~main:"main"
        [ ("main", main); ("popcount", popcount); ("intersect", intersect) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)
(* m88ksim: fetch/decode/dispatch over a simulated register file in the
   heap; many small blocks, rare over-pressure path. *)
let m88ksim machine ~scale =
  let prog_base = 0 and prog_len = 96 in
  let regs_base = 128 (* 16 simulated registers *) in
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  (* encode a tiny instruction stream: op in bits 12..15, rd 8..11,
     rs 4..7, imm 0..3 *)
  let _ =
    for_ ctx ~below:(ci prog_len) (fun i ->
        let v = itemp ctx in
        B.bin b Instr.Mul v (ti i) (ci 40503);
        B.bin b Instr.And v (ti v) (ci 0xffff);
        store_at ctx ~base:prog_base ~idx:(ti i) (ti v))
  in
  let _ =
    for_ ctx ~below:(ci 16) (fun i ->
        store_at ctx ~base:regs_base ~idx:(ti i) (ti i))
  in
  let cycles = itemp ~name:"cycles" ctx in
  B.li b cycles 0;
  let _ =
    for_ ctx ~below:(ci (6 * scale)) (fun _pass ->
        let _ =
          for_ ctx ~below:(ci prog_len) (fun pc ->
              let insn = itemp ~name:"insn" ctx in
              load_at ctx ~base:prog_base ~idx:(ti pc) insn;
              let op = itemp ctx and rd = itemp ctx in
              let rs = itemp ctx and imm = itemp ctx in
              B.bin b Instr.Srl op (ti insn) (ci 12);
              B.bin b Instr.And op (ti op) (ci 7);
              B.bin b Instr.Srl rd (ti insn) (ci 8);
              B.bin b Instr.And rd (ti rd) (ci 15);
              B.bin b Instr.Srl rs (ti insn) (ci 4);
              B.bin b Instr.And rs (ti rs) (ci 15);
              B.bin b Instr.And imm (ti insn) (ci 15);
              let vs = itemp ctx in
              load_at ctx ~base:regs_base ~idx:(ti rs) vs;
              let vd = itemp ctx in
              load_at ctx ~base:regs_base ~idx:(ti rd) vd;
              let res = itemp ~name:"res" ctx in
              let set v = B.movet b res v in
              if_ ctx Instr.Le (ti op) (ci 1)
                ~then_:(fun () ->
                  let t = itemp ctx in
                  B.bin b Instr.Add t (ti vd) (ti vs);
                  set (ti t))
                ~else_:(fun () ->
                  if_ ctx Instr.Le (ti op) (ci 3)
                    ~then_:(fun () ->
                      let t = itemp ctx in
                      B.bin b Instr.Xor t (ti vd) (ti vs);
                      set (ti t))
                    ~else_:(fun () ->
                      if_ ctx Instr.Le (ti op) (ci 5)
                        ~then_:(fun () ->
                          let t = itemp ctx in
                          B.bin b Instr.Add t (ti vs) (ti imm);
                          set (ti t))
                        ~else_:(fun () ->
                          let gate = itemp ctx in
                          B.bin b Instr.And gate (ti insn) (ci 127);
                          if_ ctx Instr.Ne (ti gate) (ci 127)
                            ~then_:(fun () ->
                              let t = itemp ctx in
                              B.bin b Instr.Sub t (ti vd) (ti vs);
                              set (ti t))
                            ~else_:(fun () ->
                          (* rare wide path (~1/128 of instructions):
                             simulated interrupt check folding the whole
                             register file in temps *)
                          let regs16 =
                            Array.init 12 (fun k ->
                                let t = itemp ctx in
                                load_at ctx ~base:regs_base ~idx:(ci k) t;
                                t)
                          in
                          let extra =
                            Array.init 4 (fun k ->
                                let t = itemp ctx in
                                B.bin b Instr.Add t (ti imm) (ci (k * 3));
                                t)
                          in
                          let acc = itemp ctx in
                          B.li b acc 1;
                          Array.iteri
                            (fun k t ->
                              let p = itemp ctx in
                              B.bin b Instr.Xor p (ti t)
                                (ti regs16.((k + 9) mod 12));
                              B.bin b Instr.Add p (ti p)
                                (ti extra.(k mod 4));
                              B.bin b Instr.Add acc (ti acc) (ti p))
                            regs16;
                          B.bin b Instr.And acc (ti acc) (ci 0xffff);
                          set (ti acc)))));
              B.bin b Instr.And res (ti res) (ci 0xffff);
              store_at ctx ~base:regs_base ~idx:(ti rd) (ti res);
              B.bin b Instr.Add cycles (ti cycles) (ci 1))
        in
        ())
  in
  let check = itemp ~name:"check" ctx in
  B.li b check 0;
  let _ =
    for_ ctx ~below:(ci 16) (fun i ->
        let v = itemp ctx in
        load_at ctx ~base:regs_base ~idx:(ti i) v;
        B.bin b Instr.Mul check (ti check) (ci 31);
        B.bin b Instr.Xor check (ti check) (ti v))
  in
  puti ctx (ti cycles);
  puti ctx (ti check);
  return_int ctx (ti check);
  let main = finish ctx in
  {
    name = "m88ksim";
    description = "fetch/decode/dispatch; rare over-pressure path";
    program = Program.create ~heap_words:4096 ~main:"main" [ ("main", main) ];
    input = "";
  }

(* ------------------------------------------------------------------ *)

exception Unfit = Wutil.Unfit

let programs =
  [
    ("alvinn", alvinn);
    ("doduc", doduc);
    ("eqntott", eqntott);
    ("espresso", espresso);
    ("fpppp", fpppp);
    ("li", li);
    ("tomcatv", tomcatv);
    ("compress", compress);
    ("m88ksim", m88ksim);
    ("sort", sort);
    ("wc", wc);
  ]

let names = List.map fst programs

let all machine ~scale =
  List.map (fun (_, build) -> build machine ~scale) programs

let find machine ~scale name =
  Option.map (fun build -> build machine ~scale) (List.assoc_opt name programs)

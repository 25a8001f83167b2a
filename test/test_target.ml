(* Unit tests for the debugger target layer. *)

let mk () =
  let reg = Ctype.create_registry () in
  Ctype.define_struct reg "inner" [ Ctype.F ("v", Ctype.int) ];
  Ctype.define_struct reg "obj"
    [ Ctype.F ("n", Ctype.int);
      Ctype.Fbits ("lo", Ctype.u32, 4);
      Ctype.Fbits ("hi", Ctype.u32, 12);
      Ctype.F ("inner", Ctype.Named "inner");
      Ctype.F ("p", Ctype.Ptr (Ctype.Named "obj"));
      Ctype.F ("arr", Ctype.Array (Ctype.u16, 4));
      Ctype.F ("s", Ctype.Array (Ctype.char, 8)) ];
  let mem = Kmem.create () in
  let tgt = Target.create mem reg in
  (tgt, mem, reg)

let test_member_and_bitfields () =
  let tgt, mem, reg = mk () in
  let a = Kmem.alloc mem ~tag:"obj" (Ctype.sizeof reg (Ctype.Named "obj")) in
  Kmem.write_u32 mem a 7;
  (* bitfield storage unit at offset 4: lo=0xA, hi=0x123 *)
  Kmem.write_u32 mem (a + 4) ((0x123 lsl 4) lor 0xa);
  let o = Target.obj (Ctype.Named "obj") a in
  Alcotest.(check int) "n" 7 (Target.as_int tgt (Target.member tgt o "n"));
  Alcotest.(check int) "lo" 0xa (Target.as_int tgt (Target.member tgt o "lo"));
  Alcotest.(check int) "hi" 0x123 (Target.as_int tgt (Target.member tgt o "hi"))

let test_member_path_flatten () =
  let tgt, mem, reg = mk () in
  let a = Kmem.alloc mem ~tag:"obj" (Ctype.sizeof reg (Ctype.Named "obj")) in
  let b = Kmem.alloc mem ~tag:"obj" (Ctype.sizeof reg (Ctype.Named "obj")) in
  let off_p = Ctype.offsetof reg "obj" "p" in
  let off_iv = Ctype.offsetof reg "obj" "inner.v" in
  Kmem.write_u64 mem (a + off_p) b;
  Kmem.write_u32 mem (b + off_iv) 55;
  let o = Target.obj (Ctype.Named "obj") a in
  (* flatten through the pointer: p.inner.v *)
  Alcotest.(check int) "flattened" 55 (Target.as_int tgt (Target.member_path tgt o "p.inner.v"))

let test_index_array () =
  let tgt, mem, reg = mk () in
  let a = Kmem.alloc mem ~tag:"obj" (Ctype.sizeof reg (Ctype.Named "obj")) in
  let off_arr = Ctype.offsetof reg "obj" "arr" in
  Kmem.write_u16 mem (a + off_arr + 4) 0x1234;
  let arr = Target.member tgt (Target.obj (Ctype.Named "obj") a) "arr" in
  Alcotest.(check int) "arr[2]" 0x1234 (Target.as_int tgt (Target.index tgt arr 2))

let test_container_of () =
  let tgt, mem, reg = mk () in
  let a = Kmem.alloc mem ~tag:"obj" (Ctype.sizeof reg (Ctype.Named "obj")) in
  let off_inner = Ctype.offsetof reg "obj" "inner" in
  let v = Target.container_of tgt (a + off_inner) "obj" "inner" in
  Alcotest.(check int) "container base" a (Target.addr_of v)

let test_casts () =
  let tgt, _, _ = mk () in
  let v = Target.int_value 0x1ff in
  Alcotest.(check int) "to u8" 0xff (Target.as_int tgt (Target.cast tgt Ctype.uchar v));
  Alcotest.(check int) "to s8" (-1) (Target.as_int tgt (Target.cast tgt Ctype.char v));
  Alcotest.(check int) "to bool" 1 (Target.as_int tgt (Target.cast tgt Ctype.Bool v));
  let p = Target.cast tgt (Ctype.Ptr (Ctype.Named "obj")) (Target.int_value 0x1000) in
  Alcotest.(check bool) "is pointer" true (Ctype.is_pointer p.Target.typ)

let test_symbol_resolution_order () =
  let tgt, _, _ = mk () in
  Target.add_macro tgt "X" 1;
  Target.add_symbol tgt "X" (Target.int_value 2);
  (match Target.lookup_symbol tgt "X" with
  | Some v -> Alcotest.(check int) "symbol wins over macro" 2 (Target.as_int tgt v)
  | None -> Alcotest.fail "no symbol");
  Alcotest.(check bool) "missing" true (Target.lookup_symbol tgt "nope" = None)

let test_truthy_and_strings () =
  let tgt, mem, _ = mk () in
  Alcotest.(check bool) "zero falsy" false (Target.truthy tgt (Target.int_value 0));
  Alcotest.(check bool) "nonzero truthy" true (Target.truthy tgt (Target.int_value 3));
  Alcotest.(check bool) "str truthy" true (Target.truthy tgt (Target.str_value "x"));
  let a = Kmem.alloc mem ~tag:"s" 8 in
  Kmem.write_cstring mem a "hey";
  Alcotest.(check string) "charp" "hey" (Target.as_string tgt (Target.ptr_to Ctype.char a))

let test_stats_and_profiles () =
  let tgt, mem, _ = mk () in
  let a = Kmem.alloc mem ~tag:"x" 16 in
  Target.reset_stats tgt;
  ignore (Kmem.read_u64 mem a);
  ignore (Kmem.read_u32 mem a);
  let st = Target.stats tgt in
  Alcotest.(check int) "reads" 2 st.Target.reads;
  Alcotest.(check int) "bytes" 12 st.Target.bytes;
  let q = Target.simulated_ms Target.qemu_local st in
  let k = Target.simulated_ms Target.kgdb_rpi400 st in
  Alcotest.(check bool) "kgdb slower" true (k > q *. 10.);
  Alcotest.(check bool) "positive" true (q > 0.)

let test_deref_errors () =
  let tgt, _, _ = mk () in
  (match Target.deref tgt (Target.int_value 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deref of int should fail");
  match Target.addr_of (Target.int_value 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "addr_of immediate should fail"

(* Lanes warm-start from the parent's read cache: a fork sees the
   parent's page stamps as of the fork, a write since then still
   misses, and the parent adopts the stamps the lane filled. *)
let test_fork_warm_cache () =
  let tgt, mem, reg = mk () in
  Target.set_transport tgt (Transport.create ~seed:1 Target.kgdb_rpi400);
  let size = Ctype.sizeof reg (Ctype.Named "obj") in
  let a = Kmem.alloc mem ~align:4096 ~tag:"obj" size in
  let b = Kmem.alloc mem ~align:4096 ~tag:"obj" size in
  Kmem.write_u32 mem a 7;
  Kmem.write_u32 mem b 8;
  let n tgt x = Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "obj") x) "n") in
  let attempts t = (Transport.snapshot (Option.get (Target.transport t))).Transport.attempts in
  let hits_misses t =
    let c = Target.cache_stats t in
    (c.Target.hits, c.Target.misses)
  in
  Alcotest.(check int) "parent reads a" 7 (n tgt a);
  Alcotest.(check int) "parent miss went over the wire" 1 (attempts tgt);
  let f1 = Target.fork ~lane:1 tgt in
  Alcotest.(check int) "lane reads a" 7 (n f1 a);
  Alcotest.(check int) "lane hit costs no wire attempt" 0 (attempts f1);
  Alcotest.(check (pair int int)) "lane: one hit" (1, 0) (hits_misses f1);
  (* a lane-local write dirties the page in the lane's view only *)
  Kmem.write_u32 (Target.mem f1) a 9;
  Alcotest.(check int) "lane sees its own write" 9 (n f1 a);
  Alcotest.(check (pair int int)) "lane-written page misses" (1, 1) (hits_misses f1);
  Alcotest.(check int) "lane b fill" 8 (n f1 b);
  Alcotest.(check int) "lane attempts" 2 (attempts f1);
  (* a base write before a fork's read invalidates the inherited stamp *)
  Kmem.write_u32 mem a 10;
  let f2 = Target.fork ~lane:2 tgt in
  Alcotest.(check int) "second lane reads the new value" 10 (n f2 a);
  Alcotest.(check (pair int int)) "stale inherited stamp misses" (0, 1) (hits_misses f2);
  Target.absorb tgt f2;
  Target.absorb tgt f1;
  (* the parent adopts the stamps the lanes filled: a re-filled by
     lane 2, b filled by lane 1 *)
  let before = attempts tgt in
  Target.reset_cache_stats tgt;
  Alcotest.(check int) "parent reads a" 10 (n tgt a);
  Alcotest.(check int) "parent reads b" 8 (n tgt b);
  Alcotest.(check (pair int int)) "adopted stamps hit" (2, 0) (hits_misses tgt);
  Alcotest.(check int) "no parent wire attempts" before (attempts tgt)

let suite =
  [ Alcotest.test_case "member + bitfields" `Quick test_member_and_bitfields;
    Alcotest.test_case "member_path flatten" `Quick test_member_path_flatten;
    Alcotest.test_case "array indexing" `Quick test_index_array;
    Alcotest.test_case "container_of" `Quick test_container_of;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "symbol resolution order" `Quick test_symbol_resolution_order;
    Alcotest.test_case "truthy + strings" `Quick test_truthy_and_strings;
    Alcotest.test_case "stats + latency profiles" `Quick test_stats_and_profiles;
    Alcotest.test_case "error cases" `Quick test_deref_errors;
    Alcotest.test_case "fork warm-starts from the parent's read cache" `Quick
      test_fork_warm_cache ]

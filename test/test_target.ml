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

let suite =
  [ Alcotest.test_case "member + bitfields" `Quick test_member_and_bitfields;
    Alcotest.test_case "member_path flatten" `Quick test_member_path_flatten;
    Alcotest.test_case "array indexing" `Quick test_index_array;
    Alcotest.test_case "container_of" `Quick test_container_of;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "symbol resolution order" `Quick test_symbol_resolution_order;
    Alcotest.test_case "truthy + strings" `Quick test_truthy_and_strings;
    Alcotest.test_case "stats + latency profiles" `Quick test_stats_and_profiles;
    Alcotest.test_case "error cases" `Quick test_deref_errors ]

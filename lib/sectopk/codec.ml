open Proto.Codec

(* Each blob is "STK1", a kind byte, then its fields. *)

let secret_key =
  magic "STK1K"
    (conv
       (fun (prp_key, ehl_keys) -> { Scheme.prp_key; ehl_keys; s = List.length ehl_keys })
       (fun (k : Scheme.secret_key) -> (k.prp_key, k.ehl_keys))
       (pair string (check (( <> ) []) "bad s" (list ~max:64 string))))

let token =
  magic "STK1T"
    (conv
       (fun (k, attrs) -> { Scheme.k; attrs })
       (fun (t : Scheme.token) -> (t.k, t.attrs))
       (pair
          (check (fun k -> k > 0) "bad token" u32)
          (check (( <> ) []) "bad token" (list ~max:4096 (pair u32 u32)))))

let encode_secret_key k = encode secret_key k
let decode_secret_key data = decode secret_key "secret key" data
let encode_token t = encode token t
let decode_token data = decode token "token" data

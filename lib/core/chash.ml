type t = string

let string = Digest.string
let bytes = Digest.bytes

type state = Buffer.t

let init () = Buffer.create 256
let feed_string = Buffer.add_string
let feed_int st v = Buffer.add_int64_le st (Int64.of_int v)
let finalize st = Digest.string (Buffer.contents st)

let to_hex h =
  if String.length h <> 16 then invalid_arg "Chash.to_hex";
  Digest.to_hex h

module Md5 = struct
  let bytes = bytes
end

let backend_name () = "md5"

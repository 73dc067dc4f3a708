def _fused_plan(values, timestamps):
    _out = []
    _append = _out.append
    _get0 = _op0._rows.get
    _get1 = _op1._rows.get
    _n0 = 0
    _n1 = 0
    for buf, t in zip(values, timestamps):
        blen = len(buf)
        pos = 0
        try:
            b = buf[pos]; pos += 1
            if b < 0x80:
                raw = b
            else:
                raw = b & 0x7F
                shift = 7
                while True:
                    b = buf[pos]; pos += 1
                    raw |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
            f0 = (raw >> 1) ^ -(raw & 1)
            b = buf[pos]; pos += 1
            if b < 0x80:
                raw = b
            else:
                raw = b & 0x7F
                shift = 7
                while True:
                    b = buf[pos]; pos += 1
                    raw |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
            f1 = (raw >> 1) ^ -(raw & 1)
            s2 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
            e2 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
        except (IndexError, _StructError):
            raise SerdeError('truncated Avro datum') from None
        if pos != blen:
            if pos > blen:
                raise SerdeError('truncated Avro datum')
            raise SerdeError('trailing bytes after Avro datum: %d' % (blen - pos))
        _rel0 = _get0(repr((f1)))
        if _rel0 is None or not (((f1) == (_rel0[0]))):
            continue
        _n0 += 1
        _rel1 = _get1(repr((_rel0[2])))
        if _rel1 is None or not (((_rel0[2]) == (_rel1[0]))):
            continue
        _n1 += 1
        out = bytearray()
        out.append(2)
        out += buf[s2:e2]
        v = ((_rel0[1]))
        if v is None:
            out.append(0)
        elif v.__class__ is str:
            out.append(2)
            raw = v.encode('utf-8')
            n = len(raw) << 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
            out += raw
        else:
            enc1(v, out)
        v = ((_rel1[1]))
        if v is None:
            out.append(0)
        elif v.__class__ is str:
            out.append(2)
            raw = v.encode('utf-8')
            n = len(raw) << 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
            out += raw
        else:
            enc2(v, out)
        _append((bytes(out), f0, None))
    return _out, (_n0, _n1,)

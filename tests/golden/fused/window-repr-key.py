def _fused_plan(values, timestamps):
    _out = []
    _append = _out.append
    _windows0 = _op0._windows
    _mput0 = _op0._messages.put
    _mdel0 = _op0._messages.delete
    _sput0 = _op0._state.put
    _touched0 = {}
    _ret0 = 0
    _n0 = 0
    for buf, t in zip(values, timestamps):
        blen = len(buf)
        pos = 0
        try:
            s0 = pos
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
            e0 = pos
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
            f3 = (raw >> 1) ^ -(raw & 1)
        except (IndexError, _StructError):
            raise SerdeError('truncated Avro datum') from None
        if pos != blen:
            if pos > blen:
                raise SerdeError('truncated Avro datum')
            raise SerdeError('trailing bytes after Avro datum: %d' % (blen - pos))
        _k0 = (repr([(f1), ((f3) > 50)]),)
        _w0 = _windows0.get(_k0)
        if _w0 is None:
            _w0 = _windows0[_k0] = _WindowState([[0, 0, 0]], [None], {'seq': 0})
        _s0 = _w0.record
        _q0 = _s0['seq']
        _s0['seq'] = _q0 + 1
        _touched0[_k0] = _s0
        _o0 = (f0)
        _v0_0 = None
        _mput0(_k0 + (_q0,), [_o0, _v0_0])
        _rows0 = _w0.rows
        _x0_0 = _w0.accs[0]
        _rows0.append((_o0, _q0, (_v0_0, )))
        _ret0 += 1
        _x0_0[1] += 1
        while len(_rows0) > 3:
            _e = _rows0.popleft()
            _x0_0[1] -= 1
            _mdel0(_k0 + (_e[1],))
            _ret0 -= 1
        _win0 = (_x0_0[1], )
        _n0 += 1
        out = bytearray()
        out.append(2)
        out += buf[s0:e0]
        out.append(2)
        out += buf[s2:e2]
        v = ((_win0[0]))
        if v is None:
            out.append(0)
        elif v.__class__ is int and -9223372036854775808 <= v <= 9223372036854775807:
            out.append(2)
            n = v << 1 if v >= 0 else ((-1 - v) << 1) | 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
        else:
            enc2(v, out)
        _append((bytes(out), f0, None))
    for _key, _record in _touched0.items():
        _sput0(_key, _record)
    _op0._retained += _ret0
    return _out, (_n0,)
